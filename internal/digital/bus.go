// Package digital builds word-level arithmetic hardware — two's-
// complement buses, ripple-carry adders, constant-coefficient
// shift-add multipliers — on the netlist substrate, and uses them to
// construct the gate-level FIR filters whose stuck-at fault behaviour
// the paper studies. It also provides behavioural (float64 and int64)
// reference models and windowed-sinc filter design.
package digital

import (
	"fmt"

	"mstx/internal/netlist"
)

// Bus is a two's-complement word: a slice of nets, least-significant
// bit first. The top net is the sign bit.
type Bus []netlist.NetID

// Width returns the bus width in bits.
func (b Bus) Width() int { return len(b) }

// Builder wraps a netlist circuit with word-level construction
// helpers. All operations append gates to C.
type Builder struct {
	// C is the circuit under construction.
	C *netlist.Circuit
	// zero/one cache constant nets so repeated constants share drivers.
	zero, one netlist.NetID
	hasZero   bool
	hasOne    bool
}

// NewBuilder returns a Builder over a fresh circuit.
func NewBuilder() *Builder {
	return &Builder{C: netlist.New()}
}

// Zero returns the shared constant-0 net.
func (b *Builder) Zero() netlist.NetID {
	if !b.hasZero {
		b.zero = b.C.Const(false)
		b.hasZero = true
	}
	return b.zero
}

// One returns the shared constant-1 net.
func (b *Builder) One() netlist.NetID {
	if !b.hasOne {
		b.one = b.C.Const(true)
		b.hasOne = true
	}
	return b.one
}

// InputBus declares a width-bit primary-input bus named name, bit i
// becoming "name[i]".
func (b *Builder) InputBus(name string, width int) Bus {
	if width <= 0 {
		panic("digital: InputBus width must be positive")
	}
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.C.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// ConstBus returns a width-bit bus carrying the two's-complement value
// v. It panics if v does not fit in width bits.
func (b *Builder) ConstBus(v int64, width int) Bus {
	if !FitsSigned(v, width) {
		panic(fmt.Sprintf("digital: constant %d does not fit in %d bits", v, width))
	}
	bus := make(Bus, width)
	for i := range bus {
		if v>>uint(i)&1 == 1 {
			bus[i] = b.One()
		} else {
			bus[i] = b.Zero()
		}
	}
	return bus
}

// MarkOutputBus declares every bit of the bus a primary output named
// "name[i]".
func (b *Builder) MarkOutputBus(bus Bus, name string) {
	for i, n := range bus {
		b.C.MarkOutput(n, fmt.Sprintf("%s[%d]", name, i))
	}
}

// SignExtend widens the bus to width bits by replicating the sign net.
// It panics when width is smaller than the current width.
func (b *Builder) SignExtend(bus Bus, width int) Bus {
	if width < len(bus) {
		panic("digital: SignExtend cannot narrow a bus")
	}
	if len(bus) == 0 {
		panic("digital: SignExtend of empty bus")
	}
	out := make(Bus, width)
	copy(out, bus)
	sign := bus[len(bus)-1]
	for i := len(bus); i < width; i++ {
		out[i] = sign
	}
	return out
}

// ShiftLeft returns the bus shifted left by k bits (zero fill),
// widening by k so no value bits are lost.
func (b *Builder) ShiftLeft(bus Bus, k int) Bus {
	if k < 0 {
		panic("digital: negative shift")
	}
	out := make(Bus, 0, len(bus)+k)
	for i := 0; i < k; i++ {
		out = append(out, b.Zero())
	}
	return append(out, bus...)
}

// Add builds a ripple-carry adder over equal-width buses and returns a
// same-width sum plus the carry-out net. Callers adding sign-extended
// operands one bit wider than needed can ignore the carry.
func (b *Builder) Add(x, y Bus) (Bus, netlist.NetID) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("digital: Add width mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		panic("digital: Add of empty buses")
	}
	sum := make(Bus, len(x))
	var carry netlist.NetID
	for i := range x {
		if i == 0 {
			sum[i], carry = b.C.HalfAdder(x[i], y[i])
		} else {
			sum[i], carry = b.C.FullAdder(x[i], y[i], carry)
		}
	}
	return sum, carry
}

// AddExpand sign-extends both operands to max(width)+1 bits and adds,
// so the result can never overflow.
func (b *Builder) AddExpand(x, y Bus) Bus {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	w++
	xe := b.SignExtend(x, w)
	ye := b.SignExtend(y, w)
	sum, _ := b.Add(xe, ye)
	return sum
}

// Negate returns the two's-complement negation, widened by one bit so
// that negating the most negative value cannot overflow.
func (b *Builder) Negate(bus Bus) Bus {
	w := len(bus) + 1
	ext := b.SignExtend(bus, w)
	inv := make(Bus, w)
	for i, n := range ext {
		inv[i] = b.C.Not(n)
	}
	one := b.ConstBus(1, w)
	sum, _ := b.Add(inv, one)
	return sum
}

// MulConst multiplies the bus by integer constant k using shift-add
// over the set bits of |k|, negating for k < 0. The result width is
// len(bus) + bitlen(|k|) (+1 when k < 0), wide enough to be exact.
// k == 0 yields a one-bit zero bus.
func (b *Builder) MulConst(bus Bus, k int64) Bus {
	if k == 0 {
		return Bus{b.Zero()}
	}
	neg := k < 0
	if neg {
		k = -k
	}
	var acc Bus
	for i := 0; i < 64; i++ {
		if k>>uint(i)&1 == 0 {
			continue
		}
		term := b.ShiftLeft(bus, i)
		if acc == nil {
			acc = term
		} else {
			acc = b.AddExpand(acc, term)
		}
	}
	if neg {
		acc = b.Negate(acc)
	}
	return acc
}

// SumTree adds the buses in a balanced tree, minimizing depth. It
// panics on an empty list.
func (b *Builder) SumTree(buses []Bus) Bus {
	if len(buses) == 0 {
		panic("digital: SumTree of nothing")
	}
	work := append([]Bus(nil), buses...)
	for len(work) > 1 {
		var next []Bus
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, b.AddExpand(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// Truncate drops high bits down to width, keeping the low bits.
// This models a datapath that carries fewer guard bits than exact.
func (b *Builder) Truncate(bus Bus, width int) Bus {
	if width <= 0 || width > len(bus) {
		panic("digital: bad Truncate width")
	}
	out := make(Bus, width)
	copy(out, bus[:width])
	return out
}

// FitsSigned reports whether v is representable in width bits two's
// complement.
func FitsSigned(v int64, width int) bool {
	if width <= 0 {
		return false
	}
	if width >= 64 {
		return true
	}
	min := -(int64(1) << uint(width-1))
	max := int64(1)<<uint(width-1) - 1
	return v >= min && v <= max
}

// EncodeSigned packs the low width bits of v into per-bit boolean
// words for the simulator: bit i of the returned slice is ~0 when bit
// i of v is 1, else 0 — broadcasting the value to all 64 lanes.
func EncodeSigned(v int64, width int) []uint64 {
	out := make([]uint64, width)
	for i := 0; i < width; i++ {
		if v>>uint(i)&1 == 1 {
			out[i] = ^uint64(0)
		}
	}
	return out
}

// DecodeSignedLane reconstructs the signed value of a bus from per-bit
// output words, taking bit `lane` of each word and sign-extending.
func DecodeSignedLane(words []uint64, lane int) int64 {
	var v uint64
	for i, w := range words {
		v |= (w >> uint(lane) & 1) << uint(i)
	}
	width := len(words)
	if width < 64 && v>>(uint(width)-1)&1 == 1 {
		v |= ^uint64(0) << uint(width)
	}
	return int64(v)
}

// decodeLanes is DecodeSignedLane for all 64 lanes at once: on return
// int64(m[l]) is DecodeSignedLane(words, l). One Transpose64 of the
// bit words replaces the per-lane, per-bit loop.
func decodeLanes(m *[64]uint64, words []uint64) {
	n := copy(m[:], words)
	clear(m[n:])
	netlist.Transpose64(m)
	width := len(words)
	if width == 0 || width >= 64 {
		return
	}
	sign := uint64(1) << uint(width-1)
	for l, v := range m {
		// Sign-extend from bit width-1.
		m[l] = (v ^ sign) - sign
	}
}

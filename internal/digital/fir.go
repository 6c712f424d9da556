package digital

import (
	"fmt"

	"mstx/internal/netlist"
)

// FIR is a gate-level direct-form FIR filter: y[n] = Σ c_i·x[n-i],
// built as a purely combinational netlist. Each delayed sample x[n-i]
// appears on its own primary-input bus (the delay line lives outside
// the netlist, in FIRSim), so register-output stuck-at faults are
// stuck-at faults on those input nets.
type FIR struct {
	// Coeffs are the integer tap coefficients c_0..c_{T-1}.
	Coeffs []int64
	// InWidth is the sample word width in bits (two's complement).
	InWidth int
	// DropLSBs is how many low bits of the convolution sum are
	// discarded at the output (fixed-point truncation).
	DropLSBs int
	// Circuit is the combinational netlist computing the full-precision
	// convolution sum.
	Circuit *netlist.Circuit
	// TapBuses[i] is the input bus carrying x[n-i].
	TapBuses []Bus
	// OutBus is the output bus, wide enough that the sum is exact.
	OutBus Bus
	// TapNets[i] lists the nets belonging to tap i's cone (the
	// multiplier and its adder into the sum tree), used to map detected
	// faults back to "a fault in tap i" as in the paper's Figure 1.
	TapNets [][]netlist.NetID
}

// FIROptions selects implementation variants of the gate-level FIR.
type FIROptions struct {
	// DropLSBs truncates the output (see NewFIRTruncated).
	DropLSBs int
	// UseCSD builds the constant multipliers from canonical signed-
	// digit recodings (adds and subtracts) instead of plain binary
	// shift-add — fewer gates for dense coefficients.
	UseCSD bool
}

// NewFIR builds the gate-level filter with a full-precision output.
// Coefficients must be nonzero somewhere; inWidth must be in [2, 32].
func NewFIR(coeffs []int64, inWidth int) (*FIR, error) {
	return NewFIRWithOptions(coeffs, inWidth, FIROptions{})
}

// NewFIRTruncated builds the gate-level filter with the low dropLSBs
// bits of the convolution sum discarded — the usual fixed-point
// practice of rounding off the coefficient fraction. The logic of the
// dropped bits remains in the netlist (it still drives carries into
// the retained bits), so low-bit faults stay in the universe but are
// observable only through carry propagation.
func NewFIRTruncated(coeffs []int64, inWidth, dropLSBs int) (*FIR, error) {
	return NewFIRWithOptions(coeffs, inWidth, FIROptions{DropLSBs: dropLSBs})
}

// NewFIRWithOptions builds the gate-level filter with the given
// implementation options.
func NewFIRWithOptions(coeffs []int64, inWidth int, opts FIROptions) (*FIR, error) {
	dropLSBs := opts.DropLSBs
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("digital: FIR needs at least one coefficient")
	}
	if inWidth < 2 || inWidth > 32 {
		return nil, fmt.Errorf("digital: FIR input width %d out of range [2,32]", inWidth)
	}
	if dropLSBs < 0 {
		return nil, fmt.Errorf("digital: negative dropLSBs")
	}
	b := NewBuilder()
	fir := &FIR{
		Coeffs:   append([]int64(nil), coeffs...),
		InWidth:  inWidth,
		DropLSBs: dropLSBs,
	}
	var products []Bus
	for i, c := range coeffs {
		bus := b.InputBus(fmt.Sprintf("x%d", i), inWidth)
		fir.TapBuses = append(fir.TapBuses, bus)
		start := b.C.NumNets()
		var prod Bus
		if opts.UseCSD {
			prod = b.MulConstCSD(bus, c)
		} else {
			prod = b.MulConst(bus, c)
		}
		products = append(products, prod)
		var cone []netlist.NetID
		for n := start; n < b.C.NumNets(); n++ {
			cone = append(cone, netlist.NetID(n))
		}
		// The tap's own input nets belong to its cone as well.
		cone = append(cone, bus...)
		fir.TapNets = append(fir.TapNets, cone)
	}
	sum := b.SumTree(products)
	if dropLSBs >= len(sum) {
		return nil, fmt.Errorf("digital: dropLSBs %d >= sum width %d", dropLSBs, len(sum))
	}
	sum = sum[dropLSBs:]
	b.MarkOutputBus(sum, "y")
	fir.OutBus = sum
	fir.Circuit = b.C
	if err := fir.Circuit.Validate(); err != nil {
		return nil, fmt.Errorf("digital: built FIR fails validation: %w", err)
	}
	return fir, nil
}

// Taps returns the number of taps.
func (f *FIR) Taps() int { return len(f.Coeffs) }

// OutWidth returns the output bus width in bits.
func (f *FIR) OutWidth() int { return len(f.OutBus) }

// TapOfNet returns the index of the tap whose cone contains net n, or
// -1 when the net belongs to the shared sum tree.
func (f *FIR) TapOfNet(n netlist.NetID) int {
	for i, cone := range f.TapNets {
		for _, m := range cone {
			if m == n {
				return i
			}
		}
	}
	return -1
}

// Reference computes the exact behavioural response y[n] = Σ c_i·x[n-i]
// for the input record xs (samples before the record are zero). It is
// the oracle the gate-level machine is checked against.
func (f *FIR) Reference(xs []int64) []int64 {
	out := make([]int64, len(xs))
	for n := range xs {
		var acc int64
		for i, c := range f.Coeffs {
			if n-i < 0 {
				break
			}
			acc += c * xs[n-i]
		}
		out[n] = acc >> uint(f.DropLSBs)
	}
	return out
}

// FIRSim runs a gate-level FIR over a sample stream, maintaining the
// delay line and supporting 64-lane fault-parallel evaluation: lane 0
// is the fault-free machine, lanes 1..63 may each carry one injected
// fault. Inputs are broadcast to all lanes.
//
// A simulator with no fault injected puts the lanes to a different
// use: every lane then computes the same machine, and since the
// netlist is combinational (the delay line lives here), lane l can
// evaluate record step t0+l. Run, RunPeriodic and CaptureBaseline take
// that time-parallel path, 64 steps per netlist pass, whenever no
// fault is injected; their results are bit-identical to stepping.
type FIRSim struct {
	fir   *FIR
	sim   *netlist.Simulator
	delay []int64
	// scratch buffers reused across steps
	inWords []uint64
}

// NewFIRSim returns a simulator for f with a cleared delay line.
func NewFIRSim(f *FIR) *FIRSim {
	return &FIRSim{
		fir:     f,
		sim:     netlist.NewSimulator(f.Circuit),
		delay:   make([]int64, f.Taps()),
		inWords: make([]uint64, f.Taps()*f.InWidth),
	}
}

// Reset clears the delay line (fault injections are preserved).
func (s *FIRSim) Reset() {
	for i := range s.delay {
		s.delay[i] = 0
	}
}

// ClearFaults removes all injected faults.
func (s *FIRSim) ClearFaults() { s.sim.ClearFaults() }

// Compiled reports whether the underlying simulator supports
// cone-differential replay (RunLanesCone).
func (s *FIRSim) Compiled() bool { return s.sim.Compiled() }

// InjectFault injects a stuck-at fault into the given lanes.
func (s *FIRSim) InjectFault(f netlist.Fault, laneMask uint64) error {
	return s.sim.InjectFault(f, laneMask)
}

// Saturate clamps v into the two's-complement range of width bits,
// mirroring what a fixed-point input register does to an over-range
// sample.
func Saturate(v int64, width int) int64 {
	max := int64(1)<<uint(width-1) - 1
	min := -max - 1
	if v > max {
		return max
	}
	if v < min {
		return min
	}
	return v
}

// Step shifts x into the delay line, evaluates the netlist, and
// returns the per-lane outputs. The returned slice is reused by the
// next Step; callers keeping results must copy. x is saturated to the
// input width.
func (s *FIRSim) Step(x int64) ([]uint64, error) {
	copy(s.delay[1:], s.delay[:len(s.delay)-1])
	s.delay[0] = Saturate(x, s.fir.InWidth)
	w := s.fir.InWidth
	for tap, v := range s.delay {
		for bit := 0; bit < w; bit++ {
			if v>>uint(bit)&1 == 1 {
				s.inWords[tap*w+bit] = ^uint64(0)
			} else {
				s.inWords[tap*w+bit] = 0
			}
		}
	}
	return s.sim.Run(s.inWords)
}

// StepValue is Step returning only the fault-free (lane 0) output as a
// signed integer.
func (s *FIRSim) StepValue(x int64) (int64, error) {
	out, err := s.Step(x)
	if err != nil {
		return 0, err
	}
	return DecodeSignedLane(out, 0), nil
}

// Run processes a whole record and returns the lane-0 output record.
func (s *FIRSim) Run(xs []int64) ([]int64, error) {
	out := make([]int64, len(xs))
	if !s.sim.Faulted() {
		return out, s.runTimeParallel(xs, out, nil)
	}
	for i, x := range xs {
		y, err := s.StepValue(x)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}

// Warm preloads the delay line by feeding the samples of xs without
// collecting outputs. Feeding the last Taps−1 samples of a record
// before running it yields the exact steady-state periodic response
// for a coherent (record-periodic) stimulus. The netlist holds no
// state, so warming only shifts the delay line and evaluates nothing.
func (s *FIRSim) Warm(xs []int64) error {
	for _, x := range xs {
		copy(s.delay[1:], s.delay[:len(s.delay)-1])
		s.delay[0] = Saturate(x, s.fir.InWidth)
	}
	return nil
}

// RunPeriodic treats xs as one period of a periodic stimulus: the
// delay line is warmed with the record tail, so the output record is
// the steady-state response with no start-up transient. This is the
// evaluation mode for spectral (coherent-test) campaigns.
func (s *FIRSim) RunPeriodic(xs []int64) ([]int64, error) {
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	return s.Run(xs)
}

// RunLanesPeriodic is RunLanes with the periodic warm-up of
// RunPeriodic.
func (s *FIRSim) RunLanesPeriodic(xs []int64, lanes int) ([][]int64, error) {
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	return s.RunLanes(xs, lanes)
}

func (s *FIRSim) warmTail(xs []int64) error {
	warm := s.fir.Taps() - 1
	if warm > len(xs) {
		warm = len(xs)
	}
	return s.Warm(xs[len(xs)-warm:])
}

// ReferencePeriodic is Reference with periodic boundary conditions:
// samples before the record wrap around from its end.
func (f *FIR) ReferencePeriodic(xs []int64) []int64 {
	n := len(xs)
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	for i := range xs {
		var acc int64
		for t, c := range f.Coeffs {
			acc += c * xs[((i-t)%n+n)%n]
		}
		out[i] = acc >> uint(f.DropLSBs)
	}
	return out
}

// Baseline is a fault-free periodic run captured for differential
// replay: a bit-packed net-value snapshot of every record step plus
// the decoded good output record. One capture serves every fault batch
// of a campaign over the same stimulus (see RunLanesCone). The
// fault-free machine broadcasts its inputs to all lanes, so every net
// word is all-zeros or all-ones and one bit per net loses nothing —
// and a whole record's snapshots stay cache-resident while dozens of
// batches replay against them.
type Baseline struct {
	// Snaps[t] holds the packed net values at record step t
	// (netlist.SnapshotBits layout).
	Snaps [][]uint64
	// Good is the decoded fault-free output record.
	Good []int64
}

// BaselineBytes returns the snapshot storage size of a steps-long
// capture, for callers budgeting memory beforehand.
func BaselineBytes(f *FIR, steps int) int {
	return steps * netlist.BitWords(f.Circuit.NumNets()) * 8
}

// CaptureBaseline runs xs as one period of a periodic stimulus on the
// fault-free machine and records the per-step net-value snapshots and
// the good output record. A simulator with an injected fault is
// refused: its snapshots would not be the fault-free baseline.
func (s *FIRSim) CaptureBaseline(xs []int64) (*Baseline, error) {
	if s.sim.Faulted() {
		return nil, fmt.Errorf("digital: CaptureBaseline needs a fault-free simulator")
	}
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	bw := netlist.BitWords(s.fir.Circuit.NumNets())
	backing := make([]uint64, len(xs)*bw)
	base := &Baseline{
		Snaps: make([][]uint64, len(xs)),
		Good:  make([]int64, len(xs)),
	}
	for i := range base.Snaps {
		base.Snaps[i] = backing[i*bw : (i+1)*bw]
	}
	return base, s.runTimeParallel(xs, base.Good, base.Snaps)
}

// runTimeParallel is the fault-free machine run 64 record steps per
// netlist pass: lane l of pass p evaluates step 64p+l of xs, continuing
// from the current delay line exactly as a Step per sample would. It
// writes the output record into good, each step's packed net snapshot
// into snaps[t] when snaps is non-nil, and leaves the delay line where
// stepping through xs would. Valid only while no fault is injected —
// then every lane computes the same combinational function.
func (s *FIRSim) runTimeParallel(xs, good []int64, snaps [][]uint64) error {
	taps, w := s.fir.Taps(), s.fir.InWidth
	// hist is the sample stream the taps read: the delay line oldest
	// first, then the saturated record, so step t's tap i reads
	// hist[taps+t-i].
	hist := make([]int64, taps+len(xs))
	for i, v := range s.delay {
		hist[taps-1-i] = v
	}
	for t, x := range xs {
		hist[taps+t] = Saturate(x, w)
	}
	// Bit planes: planes[b] is bit b of every hist sample, one bit per
	// sample, plus a zero word so a 64-bit window may start anywhere.
	nw := (len(hist)+63)/64 + 1
	planes := make([][]uint64, w)
	for b := range planes {
		planes[b] = make([]uint64, nw)
	}
	var m [64]uint64
	for c := 0; c*64 < len(hist); c++ {
		for l := range m {
			m[l] = 0
			if p := c*64 + l; p < len(hist) {
				m[l] = uint64(hist[p])
			}
		}
		netlist.Transpose64(&m)
		for b, plane := range planes {
			plane[c] = m[b]
		}
	}
	for t0 := 0; t0 < len(xs); t0 += 64 {
		// Tap i's lane word for bit b is the 64-sample window of
		// plane b starting at step t0's sample i steps back.
		for tap := 0; tap < taps; tap++ {
			pos := taps + t0 - tap
			q, r := pos>>6, uint(pos&63)
			for b, plane := range planes {
				v := plane[q] >> r
				if r != 0 {
					v |= plane[q+1] << (64 - r)
				}
				s.inWords[tap*w+b] = v
			}
		}
		words, err := s.sim.Run(s.inWords)
		if err != nil {
			return err
		}
		k := min(64, len(xs)-t0)
		if snaps != nil {
			s.sim.SnapshotLanes(snaps[t0 : t0+k])
		}
		decodeLanes(&m, words)
		for l := 0; l < k; l++ {
			good[t0+l] = int64(m[l])
		}
	}
	for i := range s.delay {
		s.delay[i] = hist[len(hist)-1-i]
	}
	return nil
}

// RunLanesCone is RunLanesPeriodic replayed differentially against a
// baseline captured from the same stimulus: per step only the fanout
// cone of the injected faults is re-evaluated, and only cone outputs
// are decoded per lane (the rest carry the good value). The returned
// records are bit-identical to RunLanesPeriodic's. Inject faults
// before calling.
func (s *FIRSim) RunLanesCone(base *Baseline, lanes int) ([][]int64, error) {
	if lanes <= 0 || lanes > 64 {
		return nil, fmt.Errorf("digital: lanes %d out of range [1,64]", lanes)
	}
	cone := s.sim.BuildCone()
	if cone == nil {
		return nil, fmt.Errorf("digital: circuit not compiled for cone replay")
	}
	steps := len(base.Snaps)
	out := make([][]int64, lanes)
	out[0] = append([]int64(nil), base.Good...)
	// One allocation backs every faulty lane's record.
	backing := make([]int64, (lanes-1)*steps)
	for l := 1; l < lanes; l++ {
		out[l] = backing[(l-1)*steps : l*steps : l*steps]
	}
	outNets := s.fir.Circuit.Outputs
	coneOuts := cone.OutputIndices()
	words := make([]uint64, len(outNets))
	var m [64]uint64
	for t := 0; t < steps; t++ {
		s.sim.RunCone(cone, base.Snaps[t])
		// Outputs outside the cone carry the good bit in every lane.
		g := uint64(base.Good[t])
		for i := range words {
			words[i] = -(g >> uint(i) & 1)
		}
		for _, i := range coneOuts {
			words[i] = s.sim.Value(outNets[i])
		}
		decodeLanes(&m, words)
		for l := 1; l < lanes; l++ {
			out[l][t] = int64(m[l])
		}
	}
	return out, nil
}

// RunLanes processes a whole record and returns one output record per
// requested lane (lanes must be < 64).
func (s *FIRSim) RunLanes(xs []int64, lanes int) ([][]int64, error) {
	if lanes <= 0 || lanes > 64 {
		return nil, fmt.Errorf("digital: lanes %d out of range [1,64]", lanes)
	}
	out := make([][]int64, lanes)
	for l := range out {
		out[l] = make([]int64, len(xs))
	}
	var m [64]uint64
	for i, x := range xs {
		words, err := s.Step(x)
		if err != nil {
			return nil, err
		}
		decodeLanes(&m, words)
		for l := 0; l < lanes; l++ {
			out[l][i] = int64(m[l])
		}
	}
	return out, nil
}

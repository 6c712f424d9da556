package netlist

// Transpose64 transposes a 64×64 bit matrix in place: afterwards bit j
// of a[i] is what bit i of a[j] was. Bit-parallel simulation keeps
// one word per net with one bit per lane; the transpose turns 64 such
// words into 64 per-lane words (and back) with 6·32 masked swaps
// instead of 4096 single-bit moves. It is an involution.
func Transpose64(a *[64]uint64) {
	// Recursive block swap: at stage j, the j×j block of rows with bit
	// j clear and columns with bit j set trades places with its mirror
	// (rows with bit j set, columns with bit j clear). m selects the
	// low j columns of every 2j-column group.
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}

// SnapshotLanes packs the current net values (after a Run) of lane l
// into dst[l], in the SnapshotBits layout: one bit per net, each dst[l]
// of length BitWords(NumNets), len(dst) at most 64. Unlike SnapshotBits
// it keeps every lane's own values, so it captures a time-parallel run
// in which lane l carries a different input step — one transpose per
// 64 nets instead of a per-net loop per lane.
func (s *Simulator) SnapshotLanes(dst [][]uint64) {
	var m [64]uint64
	for k := 0; k*64 < len(s.values); k++ {
		n := copy(m[:], s.values[k*64:])
		clear(m[n:])
		Transpose64(&m)
		for l, d := range dst {
			d[k] = m[l]
		}
	}
}

// Faulted reports whether any fault is injected. Only a fault-free
// simulator computes the same machine in every lane, which is what
// lets callers give each lane a different input instead.
func (s *Simulator) Faulted() bool { return len(s.dirtyNets) > 0 }

package mcengine

import "math"

// MeanVar is a streaming mean/variance accumulator (Welford) with an
// exact pairwise merge (Chan, Golub & LeVeque), so lane partials can
// be folded at the barrier without keeping samples. Merging in a fixed
// lane order makes the floating-point result deterministic.
type MeanVar struct {
	// N is the observation count.
	N int64
	// Mean is the running mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Observe folds one sample into the accumulator.
func (a *MeanVar) Observe(x float64) {
	a.N++
	d := x - a.Mean
	a.Mean += d / float64(a.N)
	a.M2 += d * (x - a.Mean)
}

// Merge folds another accumulator into the receiver.
func (a *MeanVar) Merge(b MeanVar) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	n := a.N + b.N
	d := b.Mean - a.Mean
	a.M2 += b.M2 + d*d*float64(a.N)*float64(b.N)/float64(n)
	a.Mean += d * float64(b.N) / float64(n)
	a.N = n
}

// Var returns the sample variance (n−1 denominator), 0 for N < 2.
func (a MeanVar) Var() float64 {
	if a.N < 2 {
		return 0
	}
	return a.M2 / float64(a.N-1)
}

// Std returns the sample standard deviation.
func (a MeanVar) Std() float64 { return math.Sqrt(a.Var()) }

// StdErr returns the standard error of the mean, 0 for N == 0.
func (a MeanVar) StdErr() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.N))
}

// ZForConfidence returns the two-sided standard-normal quantile for a
// confidence level (0.95 → ≈1.96) by bisection on the Gaussian CDF.
func ZForConfidence(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	p := 0.5 + conf/2 // upper-tail quantile of the two-sided interval
	lo, hi := 0.0, 12.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ProportionHalfWidth is the normal-approximation confidence half-width
// of a binomial proportion: z·√(p̂(1−p̂)/n). It returns +Inf when the
// trial count is zero (the proportion is unconstrained), and the
// finite-sample floor z·√(1/4n) when p̂ is degenerate (0 or 1) so a
// lucky streak cannot fake convergence.
func ProportionHalfWidth(successes, trials int64, z float64) float64 {
	if trials <= 0 {
		return math.Inf(1)
	}
	n := float64(trials)
	p := float64(successes) / n
	v := p * (1 - p)
	if v < 0.25/n { // degenerate or near-degenerate proportion
		v = 0.25 / n
	}
	return z * math.Sqrt(v/n)
}

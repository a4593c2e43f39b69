// Package metrics computes the evaluation metrics of §4.2 and §5: the
// request rejection ratio X (Equation 1), the correlation-weighted
// rejection ratio X′ (Equation 3), out-degree utilization and the relay
// fraction (Figure 10), plus the sample statistics used to average over
// the 200-sample batches.
package metrics

import (
	"fmt"
	"math"

	"github.com/tele3d/tele3d/internal/overlay"
)

// Rejection returns the normalized total rejection ratio
// Σû / Σu ∈ [0,1]: rejected requests over all requests. This is the
// quantity the paper's figures plot as "average rejection ratio" (the
// literal Equation 1 sums per-pair ratios and can exceed 1).
func Rejection(f *overlay.Forest) float64 {
	total := f.NumAccepted() + f.NumRejected()
	if total == 0 {
		return 0
	}
	return float64(f.NumRejected()) / float64(total)
}

// WeightedRejectionRaw is the literal Equation 3:
//
//	X′ = Σ_i ( Σ_j û_{i→j} / u_{i→j}² ) · u_{i→x}
//
// where u_{i→x} = min_{j: u_{i→j}>0} u_{i→j}. Each rejected request is
// weighted by its criticality Q_{i→j} = 1/u_{i→j}: losing one of many
// correlated streams from a site matters less than losing the only stream
// from a site.
func WeightedRejectionRaw(f *overlay.Forest) float64 {
	u := f.Problem().RequestMatrix()
	uh := f.RejectionMatrix()
	var x float64
	for i := range u {
		minU := math.Inf(1)
		var inner float64
		for j := range u[i] {
			if i == j || u[i][j] == 0 {
				continue
			}
			if v := float64(u[i][j]); v < minU {
				minU = v
			}
			inner += float64(uh[i][j]) / (float64(u[i][j]) * float64(u[i][j]))
		}
		if !math.IsInf(minU, 1) {
			x += inner * minU
		}
	}
	return x
}

// WeightedRejection is the normalized form of Equation 3 used for
// Figure 11: criticality-weighted rejected mass over criticality-weighted
// requested mass,
//
//	X′ = Σ_{i,j} û_{i→j}·Q_{i→j} / Σ_{i,j} u_{i→j}·Q_{i→j} ∈ [0,1].
//
// Since u·Q = 1 for every subscribed pair, the denominator is the number
// of (i,j) pairs with subscriptions; the numerator is the fraction of
// each pair's requests that were rejected. A scheme that concentrates its
// losses on high-u (low-criticality) pairs scores low even at equal raw
// rejection counts — exactly the behaviour CO-RJ buys.
func WeightedRejection(f *overlay.Forest) float64 {
	u := f.Problem().RequestMatrix()
	uh := f.RejectionMatrix()
	var num, den float64
	for i := range u {
		for j := range u[i] {
			if i == j || u[i][j] == 0 {
				continue
			}
			q := 1 / float64(u[i][j])
			num += float64(uh[i][j]) * q
			den += float64(u[i][j]) * q
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Utilization summarizes out-degree usage across the forest (Figure 10).
type Utilization struct {
	// MeanOut is the mean of dout_i / O_i across nodes with O_i > 0.
	MeanOut float64
	// StdDevOut is the standard deviation of the same ratio.
	StdDevOut float64
	// RelayFraction is the mean of (out-degree spent forwarding streams
	// that do NOT originate at the node) / O_i.
	RelayFraction float64
}

// MeasureUtilization computes out-degree utilization for a constructed
// forest.
func MeasureUtilization(f *overlay.Forest) Utilization {
	p := f.Problem()
	n := p.N()
	relayOut := make([]int, n)
	f.ForEachTree(func(t *overlay.Tree) {
		t.ForEachNode(func(v int) {
			if parent, ok := t.Parent(v); ok && parent != t.Source {
				relayOut[parent]++
			}
		})
	})
	var ratios, relays []float64
	for i := 0; i < n; i++ {
		if p.Out[i] == 0 {
			continue
		}
		ratios = append(ratios, float64(f.OutDegree(i))/float64(p.Out[i]))
		relays = append(relays, float64(relayOut[i])/float64(p.Out[i]))
	}
	mean, sd := MeanStdDev(ratios)
	relayMean, _ := MeanStdDev(relays)
	return Utilization{MeanOut: mean, StdDevOut: sd, RelayFraction: relayMean}
}

// MeanStdDev returns the mean and (population) standard deviation of the
// values. Empty input yields zeros.
func MeanStdDev(vals []float64) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)))
}

// Accumulator is a mergeable running sum for averaging per-sample
// observations. Floating-point reduction is order-sensitive, so callers
// that need bit-reproducible means must Observe (or Merge) in a fixed
// order regardless of how the samples were computed — the experiment
// engine evaluates samples concurrently but reduces them in sample-index
// order.
type Accumulator struct {
	Sum   float64
	Count int
}

// Observe adds one observation.
func (a *Accumulator) Observe(v float64) {
	a.Sum += v
	a.Count++
}

// Merge folds another accumulator into this one.
func (a *Accumulator) Merge(b Accumulator) {
	a.Sum += b.Sum
	a.Count += b.Count
}

// Mean returns the average observation, or 0 for an empty accumulator.
func (a Accumulator) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// UtilizationAccumulator averages Utilization measurements component-wise.
type UtilizationAccumulator struct {
	MeanOut       Accumulator
	StdDevOut     Accumulator
	RelayFraction Accumulator
}

// Observe adds one utilization measurement.
func (a *UtilizationAccumulator) Observe(u Utilization) {
	a.MeanOut.Observe(u.MeanOut)
	a.StdDevOut.Observe(u.StdDevOut)
	a.RelayFraction.Observe(u.RelayFraction)
}

// Merge folds another accumulator into this one.
func (a *UtilizationAccumulator) Merge(b UtilizationAccumulator) {
	a.MeanOut.Merge(b.MeanOut)
	a.StdDevOut.Merge(b.StdDevOut)
	a.RelayFraction.Merge(b.RelayFraction)
}

// Mean returns the component-wise average utilization.
func (a UtilizationAccumulator) Mean() Utilization {
	return Utilization{
		MeanOut:       a.MeanOut.Mean(),
		StdDevOut:     a.StdDevOut.Mean(),
		RelayFraction: a.RelayFraction.Mean(),
	}
}

// Series is a labelled sequence of (x, y) points, the unit of figure
// output.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Validate checks X/Y length agreement.
func (s *Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("metrics: series %q has %d x but %d y", s.Label, len(s.X), len(s.Y))
	}
	return nil
}

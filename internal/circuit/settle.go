package circuit

import (
	"math"
	"slices"
)

// The settle rule ends a fixed-step stage transient once the stage has
// settled; TStop is then only a cap. Every stage simulator in the
// framework applies it — teta's Successive-Chords loop and the
// transistor-level harness of internal/spice — so their runs span the
// same window and stay comparable.
const (
	// SettleTol is ε, the rule's tolerance as a fraction of VDD. It equals
	// the tolerance inter-stage waveforms are compressed to (PWL.Compress
	// at 1e-4·VDD), so the tail a stopped run leaves out stays inside the
	// error waveform propagation already accepts.
	SettleTol = 1e-4
	// SettleSteps is k, the number of consecutive steps the rule must
	// hold before the run ends.
	SettleSteps = 5
)

// quietTime returns the time after which waveform w stays within tol of
// its final value: 0 for DC, Start+Slew for a SatRamp, the end of the
// pulse for a one-shot Pulse, and for a *PWL the first breakpoint after
// the last one farther than tol from the final value (it interpolates
// linearly and holds its last value, so it stays within tol from there
// on). Any other waveform — a Sine, a periodic Pulse, a caller's own
// type — has no known final value and never quiets (+Inf).
func quietTime(w Waveform, tol float64) float64 {
	switch w := w.(type) {
	case DC:
		return 0
	case SatRamp:
		return w.Start + max(w.Slew, 0)
	case Pulse:
		if w.Period > 0 {
			return math.Inf(1)
		}
		// At clamps a non-positive rise or fall to 1 fs.
		rise, fall := w.Rise, w.Fall
		if rise <= 0 {
			rise = 1e-15
		}
		if fall <= 0 {
			fall = 1e-15
		}
		return w.Delay + rise + max(w.Width, 0) + fall
	case *PWL:
		final := w.V[len(w.V)-1]
		for i := len(w.V) - 2; i >= 0; i-- {
			if math.Abs(w.V[i]-final) > tol {
				return w.T[i+1]
			}
		}
		return w.T[0]
	default:
		return math.Inf(1)
	}
}

// Settle applies the settle rule to one fixed-step transient. After
// Reset, feed it each accepted step's watched port voltages through
// Done; the run may end after the first step for which Done reports
// true. That is the step at which three conditions have held for
// SettleSteps consecutive steps:
//   - every input is within SettleTol·VDD of its final value (past its
//     quiet time, see quietTime);
//   - every watched port has made a full swing during the run, having
//     been below 10% and above 90% of VDD;
//   - every watched port is within SettleTol·VDD of 0 or of VDD.
//
// A port that never makes the full swing (a quiet victim line) or never
// comes that close to a rail keeps its run at the full window. The rule
// only decides where a run ends; it changes no step, so a stopped run is
// a bit-identical prefix of the full one.
//
// The zero value is ready for Reset, and Reset reuses its buffers, so a
// Settle kept in per-worker scratch arms each run without allocating.
type Settle struct {
	vdd   float64
	quiet float64 // latest input quiet time
	swing []uint8 // per port: the swungLow|swungHigh levels it has reached
	held  int     // consecutive steps the rule has held
}

const (
	swungLow = 1 << iota
	swungHigh
)

// Reset arms s for a run on a vdd supply whose watched ports start at
// v0 (their t = 0 values count toward the swing) and whose inputs are
// the waveforms of inputs.
func (s *Settle) Reset(vdd float64, v0 []float64, inputs ...[]Waveform) {
	s.vdd = vdd
	s.quiet = 0
	for _, group := range inputs {
		for _, w := range group {
			s.quiet = max(s.quiet, quietTime(w, SettleTol*vdd))
		}
	}
	s.swing = slices.Grow(s.swing[:0], len(v0))[:len(v0)]
	clear(s.swing)
	s.held = 0
	s.track(v0)
}

// Done records the watched port voltages v of the step ending at time t
// and reports whether the rule has now held for SettleSteps consecutive
// steps.
func (s *Settle) Done(t float64, v []float64) bool {
	tol := SettleTol * s.vdd
	ok := s.track(v) && t >= s.quiet
	for _, x := range v {
		ok = ok && (math.Abs(x) <= tol || math.Abs(x-s.vdd) <= tol)
	}
	if !ok {
		s.held = 0
		return false
	}
	s.held++
	return s.held >= SettleSteps
}

// track folds v into the per-port swing record and reports whether every
// port has made the full swing.
func (s *Settle) track(v []float64) bool {
	all := true
	for p, x := range v {
		if x < 0.1*s.vdd {
			s.swing[p] |= swungLow
		}
		if x > 0.9*s.vdd {
			s.swing[p] |= swungHigh
		}
		all = all && s.swing[p] == swungLow|swungHigh
	}
	return all
}

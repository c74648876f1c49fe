package stat

// Checkpoint state round-trips for the streaming accumulators.
//
// A crash-safe Monte-Carlo run (internal/checkpoint) periodically
// serializes its streaming statistics and restores them on resume. The
// contract is bit-identity: Restore(State()) followed by Add(xs...) must
// produce exactly the same accumulator — bit for bit — as an accumulator
// that was never snapshotted. Every field that influences a future Add or
// a final readout is therefore captured verbatim; nothing is recomputed
// from summaries. The state types marshal to JSON with encoding/json,
// whose shortest-round-trip float encoding reproduces every finite
// float64 exactly.

// MomentsState is the serializable state of a Moments accumulator. The
// exact-sum partial lists are captured verbatim — JSON's shortest
// round-trip float encoding reproduces each partial exactly, so the
// restored accumulator is bit-identical.
type MomentsState struct {
	N         int       `json:"n"`
	NonFinite int       `json:"nonfinite"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
	SW        []float64 `json:"sw"`
	SW2       []float64 `json:"sw2"`
	SWX       []float64 `json:"swx"`
	SWX2      []float64 `json:"swx2"`
}

// State captures the accumulator for a checkpoint.
func (m *Moments) State() MomentsState {
	return MomentsState{
		N: m.n, NonFinite: m.nonfinite, Min: m.min, Max: m.max,
		SW:  m.sw.Partials(),
		SW2: m.sw2.Partials(),
		SWX: m.swx.Partials(), SWX2: m.swx2.Partials(),
	}
}

// Restore overwrites the accumulator with a captured state.
func (m *Moments) Restore(s MomentsState) {
	m.n, m.nonfinite, m.min, m.max = s.N, s.NonFinite, s.Min, s.Max
	m.sw.SetPartials(s.SW)
	m.sw2.SetPartials(s.SW2)
	m.swx.SetPartials(s.SWX)
	m.swx2.SetPartials(s.SWX2)
}

// P2State is the serializable state of a P2Quantile estimator: marker
// heights/positions/desired positions, the running weight sum behind
// the mean-weight step, and the pre-warmup (observation, weight)
// buffers for the n < 5 regime. The desired-position increments are a
// pure function of P and are recomputed on Restore.
type P2State struct {
	P     float64    `json:"p"`
	N     int        `json:"n"`
	SumW  float64    `json:"sumw"`
	Q     [5]float64 `json:"q"`
	Pos   [5]float64 `json:"pos"`
	Want  [5]float64 `json:"want"`
	Init  [5]float64 `json:"init"`
	InitW [5]float64 `json:"initw"`
}

// State captures the estimator for a checkpoint.
func (e *P2Quantile) State() P2State {
	return P2State{
		P: e.p, N: e.n, SumW: e.sumw,
		Q: e.q, Pos: e.pos, Want: e.want,
		Init: e.init, InitW: e.initw,
	}
}

// Restore overwrites the estimator with a captured state.
func (e *P2Quantile) Restore(s P2State) {
	e.p, e.n, e.sumw = s.P, s.N, s.SumW
	e.q, e.pos, e.want, e.init, e.initw = s.Q, s.Pos, s.Want, s.Init, s.InitW
	e.dn = [5]float64{0, s.P / 2, s.P, (1 + s.P) / 2, 1}
}

// StreamSummaryState is the serializable state of a StreamSummary: the
// exact moment accumulator (which carries the rejection counter) and
// the three P² quantile estimators.
type StreamSummaryState struct {
	M   MomentsState `json:"moments"`
	Med P2State      `json:"median"`
	Lo  P2State      `json:"p05"`
	Hi  P2State      `json:"p95"`
}

// State captures the summary sink for a checkpoint.
func (s *StreamSummary) State() StreamSummaryState {
	return StreamSummaryState{
		M:   s.m.State(),
		Med: s.med.State(),
		Lo:  s.lo.State(),
		Hi:  s.hi.State(),
	}
}

// Restore overwrites the summary sink with a captured state.
func (s *StreamSummary) Restore(st StreamSummaryState) {
	s.m.Restore(st.M)
	if s.med == nil {
		s.med = NewP2Quantile(st.Med.P)
	}
	if s.lo == nil {
		s.lo = NewP2Quantile(st.Lo.P)
	}
	if s.hi == nil {
		s.hi = NewP2Quantile(st.Hi.P)
	}
	s.med.Restore(st.Med)
	s.lo.Restore(st.Lo)
	s.hi.Restore(st.Hi)
}

// ISEstimatorState is the serializable state of an ISEstimator.
type ISEstimatorState struct {
	N         int       `json:"n"`
	Fails     int       `json:"fails"`
	NonFinite int       `json:"nonfinite"`
	SW        []float64 `json:"sw"`
	SW2       []float64 `json:"sw2"`
	SWH       []float64 `json:"swh"`
	SW2H      []float64 `json:"sw2h"`
}

// State captures the estimator for a checkpoint.
func (e *ISEstimator) State() ISEstimatorState {
	return ISEstimatorState{
		N: e.n, Fails: e.fails, NonFinite: e.nonfinite,
		SW:  e.sw.Partials(),
		SW2: e.sw2.Partials(),
		SWH: e.swh.Partials(), SW2H: e.sw2h.Partials(),
	}
}

// Restore overwrites the estimator with a captured state.
func (e *ISEstimator) Restore(s ISEstimatorState) {
	e.n, e.fails, e.nonfinite = s.N, s.Fails, s.NonFinite
	e.sw.SetPartials(s.SW)
	e.sw2.SetPartials(s.SW2)
	e.swh.SetPartials(s.SWH)
	e.sw2h.SetPartials(s.SW2H)
}

// Package load is the open-loop traffic plane: it drives the discrete-event
// runtime with call arrivals whose timing does not depend on the system's
// responses — the "heavy traffic from millions of users" regime, where a
// saturated network keeps receiving work it cannot absorb.
//
// The plane is engineered for throughput, because at millions of calls per
// run the generator and its bookkeeping compete with the event spine itself:
//
//   - Arrival times come from O(1)-per-event samplers (Poisson via an
//     exponential inter-arrival draw, bursty traffic via mmpp on-off
//     modulation) and (src,dst) endpoints from a Zipf-skewed popularity
//     table sampled in constant time with the alias method — no per-draw
//     heap walk, no rejection loop.
//   - Call-holding times and admission timers live in a calendar owned by
//     the engine, shaped like the spine's ring (one-tick slots, doubling on
//     demand to a cap, a heap beyond it), not as one scheduler event per
//     call; the spine only ever sees the call-setup packets themselves.
//   - Call-lifecycle records are drawn from a free-list pool in contiguous
//     chunks (like the spine's event records), so memory is O(1) per
//     in-flight call and steady-state generation allocates nothing.
//   - Latencies land in zero-allocation log-bucket histograms (HDR-style
//     fixed buckets) reporting p50/p99/p999 setup and delivery latency.
//
// Every random decision derives from Config.Seed through dedicated streams
// (arrival timing, endpoint choice, holding times), so a run is a pure
// function of its scenario. Capacity limits — finite NCU service queues,
// per-link bandwidth tokens (core.Capacity, sim.WithCapacity), and the
// engine's own cap on concurrent calls per endpoint — turn the plane into a
// capacity-planning instrument: blocking, queueing delay, and
// drop-under-overload become measurable, and MaxSustainableRate binary-
// searches the knee.
package load

import (
	"math/rand"

	"fastnet/internal/core"
)

// arrivals is an O(1)-per-event arrival-time sampler: Next returns the
// absolute virtual time of the next arrival, nondecreasing across calls.
type arrivals interface {
	Next() core.Time
}

// Poisson samples a homogeneous Poisson arrival process of the given rate
// (arrivals per time unit) by accumulating exponential inter-arrival draws.
type Poisson struct {
	rng  *rand.Rand
	rate float64
	t    float64
}

// NewPoisson returns a Poisson sampler at rate arrivals per tick.
func NewPoisson(rate float64, seed int64) *Poisson {
	return &Poisson{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

// Next implements Arrivals.
func (p *Poisson) Next() core.Time {
	p.t += p.rng.ExpFloat64() / p.rate
	return core.Time(p.t)
}

// mmpp is a two-state Markov-modulated Poisson process: an on phase arriving
// at the peak rate alternates with a silent off phase, both with
// exponentially distributed sojourn times. With off = on*(factor-1) and
// peak = base*factor the long-run mean rate equals base while arrivals come
// in bursts factor times denser — the classic on-off model of self-similar
// call traffic.
type mmpp struct {
	rng      *rand.Rand
	peak     float64
	onMean   float64
	offMean  float64
	t        float64
	phaseEnd float64
	on       bool
}

// newMMPP returns an on-off sampler: peak arrivals per tick during on
// phases of mean length onMean ticks, silent during off phases of mean
// length offMean ticks.
func newMMPP(peak, onMean, offMean float64, seed int64) *mmpp {
	return &mmpp{rng: rand.New(rand.NewSource(seed)), peak: peak, onMean: onMean, offMean: offMean}
}

// newBurst returns an mmpp whose long-run mean rate is rate while on-phase
// arrivals run factor times denser: peak = rate*factor over on phases of
// mean onMean ticks, balanced by off phases of mean onMean*(factor-1).
func newBurst(rate, factor, onMean float64, seed int64) *mmpp {
	if factor < 1 {
		factor = 1
	}
	return newMMPP(rate*factor, onMean, onMean*(factor-1), seed)
}

// Next implements Arrivals.
func (m *mmpp) Next() core.Time {
	for {
		if !m.on {
			// Skip the silent phase and open an on phase.
			m.t = m.phaseEnd
			m.on = true
			m.phaseEnd = m.t + m.rng.ExpFloat64()*m.onMean
		}
		dt := m.rng.ExpFloat64() / m.peak
		if m.t+dt <= m.phaseEnd {
			m.t += dt
			return core.Time(m.t)
		}
		// The draw crossed the phase boundary: close the on phase and draw
		// the off sojourn. (The truncated draw is discarded — memorylessness
		// makes restarting the exponential at the next on phase exact.)
		m.t = m.phaseEnd
		m.on = false
		m.phaseEnd = m.t + m.rng.ExpFloat64()*m.offMean
	}
}

// aliasTable is Vose's alias method: constant-time sampling from an
// arbitrary discrete distribution, built once in O(n).
type aliasTable struct {
	prob  []float64
	alias []int32
}

// newAlias builds the table for the (unnormalized) weights.
func newAlias(weights []float64) aliasTable {
	n := len(weights)
	t := aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are full columns.
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t
}

// sample draws one index: one uniform column, one biased coin.
func (t aliasTable) sample(rng *rand.Rand) int {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

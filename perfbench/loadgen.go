package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Open-loop settings, recorded in perfbench/metrics.json.
const (
	// latencyLimitMS is the p99 limit a max_rps ladder rung must meet: a
	// check answered within a quarter second keeps a janitor's edit loop
	// interactive.
	latencyLimitMS = 250.0
	// probeRate and probeRequests are the daemon probe's offered rate
	// (requests per second, about half of what jmaked sustains over nproc
	// connections on a 2-CPU host) and length: enough for a p99 with
	// minBeyond samples above it.
	probeRate     = 500.0
	probeRequests = 1000
)

// ladder is the fixed ladder of offered rates max_rps is chosen from:
// 62.5 req/s doubling every four rungs up to about 6700 req/s.
var ladder = func() []float64 {
	out := make([]float64, 28)
	for k := range out {
		out[k] = 62.5 * math.Pow(2, float64(k)/4)
	}
	return out
}()

// arrival is one scheduled request: when it is due, as an offset from the
// start of the phase, and which input it carries.
type arrival struct {
	Due  time.Duration
	Pick int
}

// schedule draws n Poisson arrivals at rate per second, each carrying an
// input index drawn with replacement from [0, picks).
func schedule(rng *rand.Rand, rate float64, n, picks int) []arrival {
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{Due: time.Duration(t * float64(time.Second)), Pick: rng.Intn(picks)}
	}
	return out
}

// sample is the outcome of one open-loop request, as offsets from the
// start of the phase: when it was due, when a connection took it, when
// its answer was complete.
type sample struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// LatencyMS is the request's latency timed from when it was due, so a
// stall is charged to every request that waited behind it.
func (s sample) LatencyMS() float64 { return ms(s.Done - s.Due) }

// LatenessMS is how late the generator sent the request.
func (s sample) LatenessMS() float64 { return ms(s.Sent - s.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendFunc performs one request for input pick and reports whether it
// succeeded.
type sendFunc func(ctx context.Context, pick int) bool

// runOpenLoop offers arrivals on their schedule over conns connections,
// each carrying one request at a time. A request that finds every
// connection busy waits in the generator's queue; that wait is lateness
// and counts in its latency.
func runOpenLoop(ctx context.Context, arrivals []arrival, conns int, send sendFunc) []sample {
	out := make([]sample, len(arrivals))
	// Sized to the number of sends, so the dispatcher never blocks and
	// stays on schedule however far the connections fall behind.
	queue := make(chan int, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Since(start)
				ok := ctx.Err() == nil && send(ctx, arrivals[i].Pick)
				out[i] = sample{Due: arrivals[i].Due, Sent: sent, Done: time.Since(start), OK: ok}
			}
		}()
	}
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.Due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// replayQueue computes what runOpenLoop would observe in front of a single
// server that handles requests in order with the given service times (ms,
// reused cyclically).
func replayQueue(arrivals []arrival, serviceMS []float64) []sample {
	out := make([]sample, len(arrivals))
	free := time.Duration(0)
	for i, a := range arrivals {
		sent := max(a.Due, free)
		done := sent + time.Duration(serviceMS[i%len(serviceMS)]*float64(time.Millisecond))
		free = done
		out[i] = sample{Due: a.Due, Sent: sent, Done: done, OK: true}
	}
	return out
}

// rung is the verdict on one ladder rate. It is judged on three
// consecutive segments, so that one stall of the host fails neither the
// latency test (the median segment counts) nor the backlog test (a backlog
// must grow from segment to segment).
type rung struct {
	Rate   float64 `json:"rate"`
	N      int     `json:"n"`
	P99MS  float64 `json:"p99_ms"` // median of the segments' p99s
	Failed int     `json:"failed"`
	// LateGrowthMS is how much mean lateness grows across the rung: twice
	// the smaller of the two segment-to-segment increases.
	LateGrowthMS float64 `json:"late_growth_ms"`
	// Score is the worse of P99MS/limit and LateGrowthMS/(limit/4); any
	// failed request makes it infinite. The rung passes when Score <= 1.
	Score float64 `json:"score"`
}

func (r rung) Pass() bool { return r.Score <= 1 }

// judge scores one rung's samples (in due order) against latencyLimitMS.
func judge(rate float64, samples []sample) rung {
	r := rung{Rate: rate, N: len(samples), Score: math.Inf(1)}
	for _, s := range samples {
		if !s.OK {
			r.Failed++
		}
	}
	third := len(samples) / 3
	if third == 0 {
		return r
	}
	var p99s, late [3]float64
	for k := 0; k < 3; k++ {
		seg := samples[k*third : (k+1)*third]
		lat := make([]float64, len(seg))
		lateness := make([]float64, len(seg))
		for i, s := range seg {
			lat[i], lateness[i] = s.LatencyMS(), s.LatenessMS()
		}
		p99s[k] = percentile(sortedCopy(lat), 0.99)
		late[k] = mean(lateness)
	}
	r.P99MS = median(p99s[:])
	r.LateGrowthMS = 2 * min(late[1]-late[0], late[2]-late[1])
	if r.Failed == 0 {
		r.Score = max(r.P99MS/latencyLimitMS, r.LateGrowthMS/(latencyLimitMS/4))
	}
	return r
}

// refineSteps is how many times searchMaxRPS halves (geometrically) the
// gap between the passing and the failing rung it brackets: near capacity
// the score rises steeply, so interpolating across a whole rung (19%)
// would land close to the passing rung whatever the true crossing.
const refineSteps = 2

// searchMaxRPS climbs the ladder from its bottom rung two rungs at a time;
// eval judges one rate. At the first rung that fails it judges the rung in
// between, then bisects the bracket refineSteps times, and the answer is
// interpolated between the highest passing and the lowest failing rate, at
// the rate where the score crosses 1, so it moves smoothly with the system
// rather than in whole rungs. It returns 0 when the bottom rung fails, and
// the top rung's rate when every rung passes.
func searchMaxRPS(eval func(rate float64) rung) (float64, []rung) {
	var tried []rung
	try := func(rate float64) rung {
		r := eval(rate)
		tried = append(tried, r)
		return r
	}
	pass := try(ladder[0])
	if !pass.Pass() {
		return 0, tried
	}
	var fail rung
	for k := 0; ; {
		if k+1 == len(ladder) {
			return ladder[k], tried
		}
		step := min(2, len(ladder)-1-k)
		if fail = try(ladder[k+step]); fail.Pass() {
			pass, k = fail, k+step
			continue
		}
		if step == 2 {
			if mid := try(ladder[k+1]); mid.Pass() {
				pass = mid
			} else {
				fail = mid
			}
		}
		break
	}
	for i := 0; i < refineSteps; i++ {
		if mid := try(math.Sqrt(pass.Rate * fail.Rate)); mid.Pass() {
			pass = mid
		} else {
			fail = mid
		}
	}
	return interpolate(pass, fail), tried
}

// interpolate returns the rate between a passing rung and a failing one
// above it where the score crosses 1 (the passing rate when the failure
// has no finite score).
func interpolate(pass, fail rung) float64 {
	if math.IsInf(fail.Score, 1) {
		return pass.Rate
	}
	return pass.Rate + (fail.Rate-pass.Rate)*(1-pass.Score)/(fail.Score-pass.Score)
}

package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// httpSender sends each request as a GET to url.
func httpSender(client *http.Client, url string) sendFunc {
	return func(ctx context.Context, _ int) bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return false
		}
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	}
}

// A server that stalls its first answer must show up in every later
// request's latency, timed from when the request was due, and as
// lateness: the generator could not send them on time.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	arrivals := make([]arrival, 10)
	for i := range arrivals {
		arrivals[i] = arrival{Due: time.Duration(i) * 10 * time.Millisecond}
	}
	samples := runOpenLoop(context.Background(), arrivals, 1, httpSender(srv.Client(), srv.URL))

	for i, s := range samples {
		if !s.OK {
			t.Fatalf("request %d failed", i)
		}
		if s.Sent < s.Due || s.Done < s.Sent {
			t.Fatalf("request %d: due %v sent %v done %v out of order", i, s.Due, s.Sent, s.Done)
		}
	}
	// Request 1 was due at 10ms but could only go out after the stall.
	second := samples[1]
	if second.LatenessMS() < ms(stall)-20 {
		t.Errorf("lateness of request behind the stall = %.1fms, want about %v", second.LatenessMS(), stall-10*time.Millisecond)
	}
	if second.LatencyMS() < second.LatenessMS() {
		t.Errorf("latency %.1fms is shorter than lateness %.1fms: not timed from the due time", second.LatencyMS(), second.LatenessMS())
	}
	if got := ms(second.Done - second.Sent); got > ms(stall)/2 {
		t.Errorf("round trip of request behind the stall = %.1fms; the stall must count as lateness, not service", got)
	}
	// The last request was due 90ms in; the queue drains by then only if
	// the stall is not charged to it.
	if last := samples[len(samples)-1]; last.LatencyMS() < 0 || last.Done < stall {
		t.Errorf("last request finished at %v, before the stall ended", last.Done)
	}
}

func TestReplayQueueIsFIFO(t *testing.T) {
	arrivals := []arrival{{Due: 0}, {Due: time.Millisecond}, {Due: 10 * time.Millisecond}}
	got := replayQueue(arrivals, []float64{5, 5, 5})
	want := []sample{
		{Due: 0, Sent: 0, Done: 5 * time.Millisecond, OK: true},
		{Due: time.Millisecond, Sent: 5 * time.Millisecond, Done: 10 * time.Millisecond, OK: true},
		{Due: 10 * time.Millisecond, Sent: 10 * time.Millisecond, Done: 15 * time.Millisecond, OK: true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// With a score linear in the rate, the interpolated answer is exactly
// where the score crosses 1.
func TestSearchMaxRPSInterpolatesCrossing(t *testing.T) {
	for _, capacity := range []float64{73, 300, 1234.5} {
		eval := func(rate float64) rung { return rung{Rate: rate, Score: rate / capacity} }
		got, rungs := searchMaxRPS(eval)
		if math.Abs(got-capacity) > 1e-9 {
			t.Errorf("capacity %v: max_rps = %v (rungs %+v)", capacity, got, rungs)
		}
	}
	// A failing first rung yields 0; a passing top rung yields the top.
	failing := func(rate float64) rung { return rung{Rate: rate, Score: 2} }
	if got, _ := searchMaxRPS(failing); got != 0 {
		t.Errorf("all rungs failing: max_rps = %v, want 0", got)
	}
	passing := func(rate float64) rung { return rung{Rate: rate, Score: 0.5} }
	if got, _ := searchMaxRPS(passing); got != ladder[len(ladder)-1] {
		t.Errorf("all rungs passing: max_rps = %v, want the top rung", got)
	}
}

// Against a handler with a known capacity, the ladder lands near that
// capacity: not far under it, and nowhere near the rates beyond it that
// an open loop timing requests from when they were sent would pass.
func TestMaxRPSLadderOnFakeHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("timed test")
	}
	const service = 2 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	send := httpSender(srv.Client(), srv.URL)

	// Measure the capacity of one connection back to back.
	const probe = 300
	start := time.Now()
	for i := 0; i < probe; i++ {
		send(context.Background(), 0)
	}
	capacity := probe / time.Since(start).Seconds()

	rng := rand.New(rand.NewSource(1))
	eval := func(rate float64) rung {
		// Each rung offers 0.6 s of arrivals.
		arr := schedule(rng, rate, max(30, int(rate*0.6)), 1)
		return judge(rate, runOpenLoop(context.Background(), arr, 1, send))
	}
	got, rungs := searchMaxRPS(eval)
	if got > capacity*1.3 || got < capacity*0.4 {
		t.Errorf("max_rps = %.1f for a handler with capacity %.1f req/s (rungs %+v)", got, capacity, rungs)
	}
}

func TestJudge(t *testing.T) {
	var steady, growing []sample
	for i := 0; i < 300; i++ {
		due := time.Duration(i) * time.Millisecond
		steady = append(steady, sample{Due: due, Sent: due, Done: due + 2*time.Millisecond, OK: true})
		// The backlog grows by the latency limit over the rung.
		late := time.Duration(float64(i) / 300 * latencyLimitMS * float64(time.Millisecond))
		growing = append(growing, sample{Due: due, Sent: due + late, Done: due + late + 2*time.Millisecond, OK: true})
	}
	if r := judge(1000, steady); !r.Pass() || r.P99MS != 2 {
		t.Errorf("steady rung: %+v, want pass with p99 2ms", r)
	}
	// One stall in one segment fails neither test.
	stalled := append([]sample(nil), steady...)
	for i := 120; i < 140; i++ {
		stalled[i].Sent += 3 * latencyLimitMS * time.Millisecond
		stalled[i].Done += 3 * latencyLimitMS * time.Millisecond
	}
	if r := judge(1000, stalled); !r.Pass() {
		t.Errorf("rung with one stall: %+v, want pass", r)
	}
	if r := judge(1000, growing); r.Pass() {
		t.Errorf("growing backlog: %+v, want fail", r)
	}
	steady[7].OK = false
	if r := judge(1000, steady); r.Pass() || r.Failed != 1 {
		t.Errorf("rung with a failed request: %+v, want fail", r)
	}
}

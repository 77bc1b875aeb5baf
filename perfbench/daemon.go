package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jmake/internal/metrics"
)

// The daemon probe: every traced run starts one jmaked on the run's seed,
// warms it with a pass over the window and offers it probeRequests /check
// requests at probeRate, to measure the daemon and load-generator layers.

// probeTraffic is the probe's seeded open-loop schedule over a window of n
// commits: Poisson arrivals at probeRate, commits drawn with replacement.
func probeTraffic(s seeds, n int) []arrival {
	return schedule(rand.New(rand.NewSource(s.Traffic)), probeRate, probeRequests, n)
}

// daemon is a running jmaked child process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	exited   chan struct{}
	waitErr  error
	logFile  *os.File
	stopOnce sync.Once
	stopErr  error
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs jmaked on the seed's workspace with its default
// admission settings and returns once /readyz answers 200.
func startDaemon(ctx context.Context, cfg config, s seeds) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(cfg.out, "jmaked-"+cfg.workload+".log"))
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	d := &daemon{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		exited:  make(chan struct{}),
		logFile: logFile,
	}
	ws := s.workspace()
	d.cmd = exec.Command(cfg.jmaked,
		"-addr", addr,
		"-tree-seed", strconv.FormatInt(ws.TreeSeed, 10),
		"-history-seed", strconv.FormatInt(ws.HistorySeed, 10),
		"-tree-scale", strconv.FormatFloat(ws.TreeScale, 'g', -1, 64),
		"-commit-scale", strconv.FormatFloat(ws.CommitScale, 'g', -1, 64))
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	// If the benchmark dies without stopping it, the kernel does.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting jmaked: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logFile.Close()
			return nil, fmt.Errorf("jmaked exited before ready: %v (log %s)", d.waitErr, logFile.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 2*time.Minute {
			d.stop()
			return nil, errors.New("jmaked not ready after 2m")
		}
	}
}

// stop drains jmaked with SIGTERM, kills it if it does not exit in time,
// and waits for it. Later calls return the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.client.CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.logFile.Close()
		var ee *exec.ExitError
		if d.waitErr != nil && !errors.As(d.waitErr, &ee) {
			d.stopErr = d.waitErr
		}
	})
	return d.stopErr
}

// check posts one /check and returns the status and body.
func (d *daemon) check(ctx context.Context, id string) (int, []byte, error) {
	body, _ := json.Marshal(map[string]any{"commit": id}) // cannot fail for a string map
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/check", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) getJSON(url string, v any) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// snapshot is jmaked's /metricsz daemon and session series at one instant.
type snapshot map[string]string

func (d *daemon) snapshot() (snapshot, error) {
	var m struct {
		Daemon  []metrics.Sample `json:"daemon"`
		Session []metrics.Sample `json:"session"`
	}
	if err := d.getJSON(d.base+"/metricsz?format=json", &m); err != nil {
		return nil, err
	}
	s := make(snapshot)
	for _, x := range append(m.Daemon, m.Session...) {
		s[x.Name] = x.Value
	}
	return s, nil
}

// counter is the delta of a counter series (0 when absent).
func counter(a, b snapshot, name string) float64 {
	x, _ := strconv.ParseFloat(a[name], 64)
	y, _ := strconv.ParseFloat(b[name], 64)
	return y - x
}

// histMean is the mean of a histogram series' observations between two
// snapshots, from its count and sum.
func histMean(a, b snapshot, name string) float64 {
	parse := func(v string) (count, sum float64) {
		for _, f := range strings.Fields(v) {
			if c, ok := strings.CutPrefix(f, "count="); ok {
				count, _ = strconv.ParseFloat(c, 64)
			}
			if s, ok := strings.CutPrefix(f, "sum="); ok {
				sum, _ = strconv.ParseFloat(s, 64)
			}
		}
		return
	}
	c0, s0 := parse(a[name])
	c1, s1 := parse(b[name])
	return ratio(s1-s0, c1-c0)
}

// session is the probe's view of one warm jmaked.
type session struct {
	d      *daemon
	window []string
	mu     sync.Mutex // guards ver: open-loop connections verify concurrently
	ver    *verifier
	ops    int
	failed int
}

// do sends one /check for window[pick] and checks the answer: anything
// but a 200 whose body is then verified counts as a failed op.
func (ss *session) do(ctx context.Context, pick int) bool {
	id := ss.window[pick]
	status, body, err := ss.d.check(ctx, id)
	if err != nil || status != http.StatusOK {
		return false
	}
	ss.mu.Lock()
	ss.ver.observe(id, body)
	ss.mu.Unlock()
	return true
}

// warm sends one pass over the window before timing, verifying each body.
func (ss *session) warm(ctx context.Context) error {
	for i := range ss.window {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ss.do(ctx, i) {
			return fmt.Errorf("warm-up check of %s failed", ss.window[i])
		}
	}
	return nil
}

// openLoop offers arrivals over conns connections and counts the ops.
func (ss *session) openLoop(ctx context.Context, arrivals []arrival, conns int) []sample {
	samples := runOpenLoop(ctx, arrivals, conns, ss.do)
	for _, s := range samples {
		ss.ops++
		if !s.OK {
			ss.failed++
		}
	}
	return samples
}

// openService starts jmaked, checks that it serves the benchmark's
// window, and warms it.
func openService(cfg config, s seeds, window []string, ver *verifier) (*session, error) {
	d, err := startDaemon(cfg.ctx, cfg, s)
	if err != nil {
		return nil, err
	}
	ss := &session{d: d, window: window, ver: ver}
	var got struct {
		Commits []string `json:"commits"`
	}
	if err := d.getJSON(d.base+"/commits", &got); err != nil {
		d.stop()
		return nil, err
	}
	if strings.Join(got.Commits, ",") != strings.Join(window, ",") {
		d.stop()
		return nil, errors.New("jmaked serves a different window than the benchmark generated")
	}
	if err := ss.warm(cfg.ctx); err != nil {
		d.stop()
		return nil, err
	}
	return ss, nil
}

// generatorCPUs is the GOMAXPROCS the benchmark process keeps while it
// drives jmaked: on a 2-CPU host a generator free to use both CPUs took
// them from jmaked in bursts, which raised p50 by a quarter and made p99
// swing with the generator's own scheduling.
const generatorCPUs = 1

// asGenerator limits this process to generatorCPUs and returns the
// function that restores the previous setting.
func asGenerator(o *outcome) (restore func()) {
	prev := runtime.GOMAXPROCS(generatorCPUs)
	o.notes["generator_gomaxprocs"] = generatorCPUs
	return func() { runtime.GOMAXPROCS(prev) }
}

// daemonProbe measures the daemon and load-generator layers: one warm
// jmaked on the run's seed, probeRequests open-loop /check requests over
// nproc connections, and the daemon's counters across them.
func daemonProbe(cfg config, s seeds, window []string, o *outcome) error {
	defer asGenerator(o)()
	ss, err := openService(cfg, s, window, o.ver)
	if err != nil {
		return err
	}
	defer ss.d.stop()
	a, err := ss.d.snapshot()
	if err != nil {
		return err
	}
	samples := ss.openLoop(cfg.ctx, probeTraffic(s, len(window)), runtime.NumCPU())
	b, err := ss.d.snapshot()
	if err != nil {
		return err
	}
	var late, rtt []float64
	for _, x := range samples {
		late = append(late, x.LatenessMS())
		rtt = append(rtt, ms(x.Done-x.Sent))
	}
	lp, err := p99(late)
	if err != nil {
		return fmt.Errorf("loadgen.lateness_p99_ms: %w", err)
	}
	o.set("loadgen.lateness_p99_ms", lp)
	o.set("daemon.queue_wait_mean_ms", histMean(a, b, "queue_wait_seconds")*1000)
	wall := histMean(a, b, "request_wall_seconds{endpoint=check}") * 1000
	o.set("daemon.server_wall_mean_ms", wall)
	o.set("daemon.http_overhead_ms", mean(rtt)-wall)
	o.set("daemon.shed_ratio", counter(a, b, "requests_shed")/float64(len(samples)))
	o.attempted += ss.ops
	o.failed += ss.failed
	return ss.d.stop()
}

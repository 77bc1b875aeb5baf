package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jmake"
	"jmake/internal/cliopts"
)

// The generated workspace every workload runs on: the sizes jmaked serves
// by default, which is what a janitor gets (647 window commits).
const (
	treeScale   = 0.4
	commitScale = 0.05
)

// seeds are the per-run seeds derived from the benchmark's --seed.
type seeds struct {
	Tree, History, Traffic int64
}

// deriveSeeds expands one workload seed into the tree, history and
// traffic seeds with a splitmix64 chain, so neighbouring seeds give
// unrelated inputs.
func deriveSeeds(seed int64) seeds {
	x := uint64(seed)
	next := func() int64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int64(z%1_000_000) + 1
	}
	return seeds{Tree: next(), History: next(), Traffic: next()}
}

func (s seeds) workspace() cliopts.Workspace {
	return cliopts.Workspace{TreeSeed: s.Tree, HistorySeed: s.History, TreeScale: treeScale, CommitScale: commitScale}
}

// opDigest hashes the operation sequence a run offers: the window commit
// IDs in order and the daemon probe's traffic, drawn from the traffic
// seed. Equal seeds give equal digests.
func opDigest(s seeds, window []string) string {
	h := sha256.New()
	for _, id := range window {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	for _, a := range probeTraffic(s, len(window)) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(a.Due))
		binary.LittleEndian.PutUint64(b[8:], uint64(a.Pick))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// encodeReport renders a report the way `jmake -commit ID -json` and
// jmaked's /check do, so in-process reports compare byte for byte with
// served bodies and with the reference.
func encodeReport(r *jmake.Report) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// refSet is the reference for one seed: report bytes per commit, and the
// per-commit counts the traced run takes from the same reports.
type refSet struct {
	bytes map[string][]byte
	facts map[string]refFacts
}

// refFacts are exact counts from one reference report.
type refFacts struct {
	makeI, makeO, configs int
}

// references computes the reference report bytes of every commit with
// jmake.CheckCommit, which builds a fresh Session per commit and so shares
// no cache with any workload. It also applies the safety invariant.
func references(built *cliopts.Built) (*refSet, error) {
	rs := &refSet{bytes: make(map[string][]byte), facts: make(map[string]refFacts)}
	for _, id := range built.WindowIDs {
		r, err := jmake.CheckCommit(built.Hist.Repo, id, jmake.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference check of %s: %w", id, err)
		}
		if bad := falseCertifications(r); len(bad) > 0 {
			return nil, fmt.Errorf("reference report of %s breaks the safety invariant: %s", id, strings.Join(bad, "; "))
		}
		b, err := encodeReport(r)
		if err != nil {
			return nil, err
		}
		rs.bytes[id] = b
		rs.facts[id] = refFacts{makeI: len(r.MakeIDurations), makeO: len(r.MakeODurations), configs: len(r.ConfigDurations)}
	}
	return rs, nil
}

// falseCertifications applies jmake-load's safety invariant: a certified
// file has every mutation witnessed and no escaped line.
func falseCertifications(r *jmake.Report) []string {
	var bad []string
	for _, f := range r.Files {
		if f.Status != jmake.StatusCertified {
			continue
		}
		if f.FoundMutations != f.Mutations {
			bad = append(bad, fmt.Sprintf("%s certified with %d/%d mutations found", f.Path, f.FoundMutations, f.Mutations))
		}
		if len(f.EscapedLines) != 0 {
			bad = append(bad, fmt.Sprintf("%s certified with escaped lines %v", f.Path, f.EscapedLines))
		}
	}
	return bad
}

// verifier checks op outputs against the reference bytes. Outputs are
// observed while the workload runs and compared once the reference is
// computed, after every timed region: the first output for each commit is
// kept and compared byte for byte with the reference, every later output
// for that commit byte for byte with the first.
type verifier struct {
	first      map[string][]byte
	count      map[string]int
	mismatched int
	firstBad   string
}

func newVerifier() *verifier {
	return &verifier{first: make(map[string][]byte), count: make(map[string]int)}
}

func (v *verifier) bad(id string, n int) {
	v.mismatched += n
	if v.firstBad == "" {
		v.firstBad = id
	}
}

// observe records one op's output bytes for commit id.
func (v *verifier) observe(id string, got []byte) {
	prev, ok := v.first[id]
	switch {
	case !ok:
		v.first[id] = got
		v.count[id] = 1
	case bytes.Equal(prev, got):
		v.count[id]++
	default:
		v.bad(id, 1)
	}
}

// observeReports encodes in-process reports and observes them. A report
// that breaks the safety invariant is a mismatch whatever its bytes.
func (v *verifier) observeReports(ids []string, reps []*jmake.Report) error {
	for i, r := range reps {
		if r == nil {
			continue // the op failed and was counted as such
		}
		if len(falseCertifications(r)) > 0 {
			v.bad(ids[i], 1)
			continue
		}
		b, err := encodeReport(r)
		if err != nil {
			return err
		}
		v.observe(ids[i], b)
	}
	return nil
}

// settle compares the kept outputs with the reference bytes.
func (v *verifier) settle(ref map[string][]byte) {
	ids := make([]string, 0, len(v.first))
	for id := range v.first {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if want, ok := ref[id]; !ok || !bytes.Equal(want, v.first[id]) {
			v.bad(id, v.count[id])
		}
	}
}

// host describes where a result was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seeds      seeds  `json:"derived_seeds"`
}

func hostFacts(seed int64) host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown (built outside a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		Commit:     commit,
		Seed:       seed,
		Seeds:      deriveSeeds(seed),
	}
}

// peakRSSMB reads this process's VmHWM, the peak resident set, in MB
// (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostCPU is a reading of the machine-wide CPU time counters.
type hostCPU struct{ busy, steal, total uint64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var h hostCPU
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field reads as 0
		h.total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			h.steal += v
		default:
			h.busy += v
		}
	}
	return h
}

// hostLoad returns the machine's busy and stolen CPU time since a, as
// percentages of all CPU time, to tell a noisy host from a slow program.
func hostLoad(a hostCPU) map[string]float64 {
	b := readHostCPU()
	total := float64(b.total - a.total)
	return map[string]float64{
		"busy_pct":  100 * ratio(float64(b.busy-a.busy), total),
		"steal_pct": 100 * ratio(float64(b.steal-a.steal), total),
	}
}

// usage is a snapshot of this process's allocation and CPU counters.
type usage struct {
	alloc uint64
	cpu   time.Duration
	gcCPU float64 // seconds, from runtime/metrics
	allCP float64 // seconds, from runtime/metrics
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(cpuSamples)
	return usage{
		alloc: m.TotalAlloc,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU: cpuSamples[0].Value.Float64(),
		allCP: cpuSamples[1].Value.Float64(),
	}
}

// usageDelta accumulates counters across several measured intervals.
type usageDelta struct {
	alloc uint64
	cpu   time.Duration
	gcCPU float64
	allCP float64
}

func (d *usageDelta) add(a, b usage) {
	d.alloc += b.alloc - a.alloc
	d.cpu += b.cpu - a.cpu
	d.gcCPU += b.gcCPU - a.gcCPU
	d.allCP += b.allCP - a.allCP
}

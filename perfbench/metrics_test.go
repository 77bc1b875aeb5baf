package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric names and units live in three places: BENCHMARK.json at the
// checkout root, metrics.json beside this file, and the units table the
// program prints from. They must agree.
func TestMetricTablesAgree(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var doc struct {
		EndToEnd map[string]string `json:"end_to_end"`
		PerLayer []struct {
			Name  string   `json:"name"`
			Moves []string `json:"moves"`
		} `json:"per_layer"`
		MaxRPS struct {
			LatencyLimit float64 `json:"latency_limit_ms"`
		} `json:"max_rps_ladder"`
		Probe struct {
			Rate     float64 `json:"rate_rps"`
			Requests int     `json:"requests"`
		} `json:"daemon_probe"`
	}
	readJSON(t, "metrics.json", &doc)

	seen := make(map[string]bool)
	check := func(name, unit string) {
		if seen[name] {
			t.Errorf("%s listed twice in BENCHMARK.json", name)
		}
		seen[name] = true
		if units[name] != unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program unit %q", name, unit, units[name])
		}
	}
	for i, m := range bench.EndToEnd {
		check(m.Name, m.Unit)
		if i >= len(endToEnd) || endToEnd[i] != m.Name {
			t.Errorf("end-to-end metric %d is %s in BENCHMARK.json; the program's list is %v", i, m.Name, endToEnd)
		}
		if doc.EndToEnd[m.Name] == "" {
			t.Errorf("metrics.json does not define %s", m.Name)
		}
	}
	documented := make(map[string]bool)
	for _, m := range doc.PerLayer {
		documented[m.Name] = true
	}
	for _, m := range bench.PerLayer {
		check(m.Name, m.Unit)
		if !documented[m.Name] {
			t.Errorf("metrics.json has no prediction for %s", m.Name)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("the program prints %s but BENCHMARK.json does not list it", name)
		}
	}
	if doc.MaxRPS.LatencyLimit != latencyLimitMS {
		t.Errorf("metrics.json max_rps_ladder %+v disagrees with the program (limit %v)", doc.MaxRPS, latencyLimitMS)
	}
	if doc.Probe.Rate != probeRate || doc.Probe.Requests != probeRequests {
		t.Errorf("metrics.json daemon_probe %+v disagrees with the program (rate %v, requests %d)",
			doc.Probe, probeRate, probeRequests)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

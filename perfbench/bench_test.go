package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly in both modes and checks that no
// operation failed and that every metric of the mode is present with its
// unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{seed: 7, dur: 500 * time.Millisecond, traced: traced, workdir: t.TempDir(), out: io.Discard}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkSchema checks BENCHMARK.json against the benchmark contract
// and against the workloads and metrics this program reports.
func TestBenchmarkSchema(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(blob))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want 6", len(keys))
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || (len(c) > 0 && c[0] == '/') {
			t.Errorf("bad command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || regexp.MustCompile(`(^|/)\.\.(/|$)`).MatchString(p) {
			t.Errorf("bad path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if runs := 4 + 22*len(b.Workloads); runs*b.RunSeconds > 3420 {
		t.Errorf("%d runs of %ds exceed the time budget", runs, b.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: bad why", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

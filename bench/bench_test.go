package main

import (
	"math"
	"regexp"
	"testing"
)

// TestQuickPlan runs the -quick plan in-process and holds it against
// BENCHMARK.json, so a benchmark broken by an unrelated API change fails
// `go -C bench test ./...` instead of the next recording run. (bench/ is a
// module of its own, so the root module's `go test ./...` does not run it.)
func TestQuickPlan(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: not a contract name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	// BENCHMARK.json lists the workloads the driver gates on, which are fewer
	// than the program has; each must be one the program runs.
	for _, ws := range spec.Workloads {
		if !nameRE.MatchString(ws.Name) || workloadByName(ws.Name) == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the program does not have", ws.Name)
		}
	}

	res, err := runPlan(spec, 1, true, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quick {
		t.Error("a quick run must be marked quick")
	}
	for _, p := range res.check(spec) {
		t.Error(p)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil {
			t.Errorf("workload %s missing from the result", w.name)
			continue
		}
		if wr.Attempted < 1 {
			t.Errorf("%s attempted nothing", w.name)
		}
		for _, m := range spec.EndToEnd {
			if s, ok := wr.E2E[m.Name]; ok && (s.Unit != m.Unit || s.Value <= 0) {
				t.Errorf("%s %s = %v %q, want a positive value in %q", w.name, m.Name, s.Value, s.Unit, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			s, ok := wr.Layer[m.Name]
			if !ok {
				s, ok = res.Kernels[m.Name]
			}
			if ok && s.Unit != m.Unit {
				t.Errorf("%s %s has unit %q, declared %q", w.name, m.Name, s.Unit, m.Unit)
			}
		}
		if v := wr.Layer["core.leaks"]; v.Value != 0 {
			t.Errorf("%s leaked: %v", w.name, v.Value)
		}
	}
	if v, ok := res.Kernels["core.leaks"]; !ok || v.Value != 0 {
		t.Errorf("signaled-channel churn leaked: %+v", v)
	}
}

// TestQuantile pins the quartiles to Python's statistics.quantiles(n=4),
// which the driver uses for the same spreads.
func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{3, 5}, 0.25); got != 3 {
		t.Errorf("quantile clamps at the ends: got %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := MetricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	allocs := MetricSpec{Name: "allocs_per_op", Better: "lower", Bound: 0.10}
	setup := MetricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}
	st := func(vals ...float64) Stat { return summarize("", vals) }
	for _, c := range []struct {
		name string
		m    MetricSpec
		a, b Stat
		want string
	}{
		{"steady and equal", lower, st(100, 101, 102, 103, 104), st(101, 102, 103, 104, 105), "same"},
		{"shifted past the bound", lower, st(100, 101, 102, 103, 104), st(120, 121, 122, 123, 124), "worse"},
		{"higher is better", higher, st(100, 101, 102, 103, 104), st(120, 121, 122, 123, 124), "better"},
		{"separated but within the bound", lower, st(100, 100.5, 101, 101.5, 102), st(104, 104.5, 105, 105.5, 106), "same"},
		{"noisy on both sides", lower, st(80, 90, 100, 110, 120), st(85, 95, 105, 115, 125), "unresolved"},
		{"allocs under the floor", allocs, st(0.0044, 0.0045, 0.0046), st(0.0064, 0.0065, 0.0066), "same"},
		{"allocs over the floor", allocs, st(3.00, 3.00, 3.01), st(4.00, 4.00, 4.01), "worse"},
		{"setup under the floor", setup, st(26e-6, 30e-6, 40e-6), st(60e-6, 90e-6, 619e-6), "same"},
		{"setup over the floor", setup, st(0.050, 0.051, 0.052), st(0.060, 0.061, 0.062), "worse"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

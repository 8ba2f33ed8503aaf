package main

// compare.go is the regression gate: two result files in, one row per
// (workload, end-to-end metric) out, each judged against the bound
// BENCHMARK.json fixes for that metric.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// absFloor is the absolute change below which a metric has not moved,
// whatever share of a small base that is: pingpong_mem makes 0.005
// allocations per op and builds its fabric in 30 µs, so a stray allocation
// per thousand ops or one scheduler blip is 20 % of either.
var absFloor = map[string]float64{
	"allocs_per_op": 0.05,
	"setup_s":       0.005,
}

// verdict judges b against a for a metric whose better direction and bound
// are m's. The change is the shift of the value (the best slice) in the
// worse direction as a share of a's value.
//
//	better | worse   the values differ by more than the bound
//	same             they do not, or by less than the metric's absFloor
//	unresolved       the two interquartile ranges overlap by more than the
//	                 bound, so a shift that size cannot be told from noise —
//	                 unless every slice of one side beats every slice of
//	                 the other, which settles it
func verdict(m MetricSpec, a, b Stat) (change float64, v string) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	base := math.Abs(a.Value)
	if base == 0 {
		base = 1
	}
	change = sign * (b.Value - a.Value) / base
	if math.Abs(b.Value-a.Value) < absFloor[m.Name] {
		return change, "same"
	}
	byShift := func() string {
		switch {
		case change > m.Bound:
			return "worse"
		case change < -m.Bound:
			return "better"
		}
		return "same"
	}
	if len(a.Reps) > 0 && len(b.Reps) > 0 {
		minA, maxA := minMax(a.Reps)
		minB, maxB := minMax(b.Reps)
		if maxB < minA || maxA < minB {
			return change, byShift()
		}
	}
	overlap := math.Min(a.Q3, b.Q3) - math.Max(a.Q1, b.Q1)
	if overlap/base > m.Bound {
		return change, "unresolved"
	}
	return change, byShift()
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func runCompare(spec *Spec, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *Result
		if b, err = readResult(pathB); err == nil {
			return compareResults(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compareResults(spec *Spec, a, b *Result) int {
	if a.Quick || b.Quick {
		fmt.Println("note: a -quick result is a smoke run; its numbers decide nothing")
	}
	var names []string
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	counts := map[string]int{}
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (best)", "b (best)", "b/a", "bound", "verdict")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			sa, okA := wa.E2E[m.Name]
			sb, okB := wb.E2E[m.Name]
			if !okA || !okB {
				continue
			}
			_, v := verdict(m, sa, sb)
			counts[v]++
			fmt.Printf("%-14s %-14s %14.6g %14.6g %9.4f %6.0f%%  %s\n", n, m.Name, sa.Value, sb.Value, sb.Value/sa.Value, 100*m.Bound, v)
		}
		// Failures have no noise band: more of them is worse.
		v := "same"
		if wb.Failed > wa.Failed {
			v = "worse"
		}
		counts[v]++
		fmt.Printf("%-14s %-14s %14d %14d %9s %7s  %s\n", n, "failed", wa.Failed, wb.Failed, "-", "0", v)
	}
	fmt.Printf("better %d  same %d  worse %d  unresolved %d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

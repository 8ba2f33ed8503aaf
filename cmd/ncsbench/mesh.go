package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// mesh is bench.Mesh by hand — the pair BenchmarkScaleMesh's skewed cells
// measure, at four lanes regardless of GOMAXPROCS (the experiment shows the
// lane schedulers, it does not measure this host):
//
//	ncsbench -experiment mesh                      # balanced placement
//	ncsbench -experiment mesh -laneskew            # every channel on lane 0
//	ncsbench -experiment mesh -laneskew -weights 6,1
func mesh(skew bool, weightSpec string) error {
	weights, err := parseWeights(weightSpec)
	if err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	cfg := bench.MeshConfig{Msgs: 4000, Lanes: 4, Skew: skew, Weights: weights}
	fmt.Print(bench.RenderMesh(cfg, bench.Mesh(cfg)))
	return nil
}

// parseWeights turns "6,2,1" into DRR weights; empty means defaults.
func parseWeights(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -weights entry %q (want positive integers)", f)
		}
		out = append(out, w)
	}
	return out, nil
}

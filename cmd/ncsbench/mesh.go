package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// mesh is bench.Mesh by hand, at four lanes regardless of GOMAXPROCS (the
// experiment shows the lane schedulers, it does not measure this host):
//
//	ncsbench -experiment mesh                # default weights, priority+1
//	ncsbench -experiment mesh -weights 6,1
func mesh(weightSpec string) error {
	weights, err := parseWeights(weightSpec)
	if err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	cfg := bench.MeshConfig{Msgs: 4000, Lanes: 4, Weights: weights}
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

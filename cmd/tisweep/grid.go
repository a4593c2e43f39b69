package main

// grid.go parses the comma-separated grid flags: whitespace around tokens
// is trimmed, empty tokens are dropped, and a grid with no usable token is
// an error (a flag that should not sweep just holds a singleton).

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/workload"
)

// splitList breaks a comma-separated list into trimmed non-empty tokens.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseInts parses a comma-separated integer grid.
func parseInts(name, s string) ([]int, error) {
	toks := splitList(s)
	if len(toks) == 0 {
		return nil, fmt.Errorf("-%s: empty grid %q", name, s)
	}
	out := make([]int, 0, len(toks))
	for _, tok := range toks {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad integer %q", name, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated float grid.
func parseFloats(name, s string) ([]float64, error) {
	toks := splitList(s)
	if len(toks) == 0 {
		return nil, fmt.Errorf("-%s: empty grid %q", name, s)
	}
	out := make([]float64, 0, len(toks))
	for _, tok := range toks {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad float %q", name, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCapacities parses a grid of capacity kind names.
func parseCapacities(s string) ([]workload.CapacityKind, error) {
	toks := splitList(s)
	if len(toks) == 0 {
		return nil, fmt.Errorf("-capacity: empty grid %q", s)
	}
	out := make([]workload.CapacityKind, 0, len(toks))
	for _, tok := range toks {
		switch strings.ToLower(tok) {
		case "uniform":
			out = append(out, workload.CapacityUniform)
		case "heterogeneous", "hetero":
			out = append(out, workload.CapacityHeterogeneous)
		default:
			return nil, fmt.Errorf("-capacity: unknown kind %q (want uniform or heterogeneous)", tok)
		}
	}
	return out, nil
}

// parsePopularities parses a grid of popularity kind names.
func parsePopularities(s string) ([]workload.PopularityKind, error) {
	toks := splitList(s)
	if len(toks) == 0 {
		return nil, fmt.Errorf("-popularity: empty grid %q", s)
	}
	out := make([]workload.PopularityKind, 0, len(toks))
	for _, tok := range toks {
		switch strings.ToLower(tok) {
		case "zipf":
			out = append(out, workload.PopularityZipf)
		case "random":
			out = append(out, workload.PopularityRandom)
		case "zipf-sites", "zipfsites":
			out = append(out, workload.PopularityZipfSites)
		default:
			return nil, fmt.Errorf("-popularity: unknown kind %q (want zipf, random or zipf-sites)", tok)
		}
	}
	return out, nil
}

// parseAlgorithms parses a grid of construction algorithm names. The
// granular LTF takes its granularity inline: "gran-ltf:20".
func parseAlgorithms(s string) ([]overlay.Algorithm, error) {
	toks := splitList(s)
	if len(toks) == 0 {
		return nil, fmt.Errorf("-alg: empty grid %q", s)
	}
	out := make([]overlay.Algorithm, 0, len(toks))
	for _, tok := range toks {
		alg, err := overlay.ParseAlgorithm(tok)
		if err != nil {
			return nil, fmt.Errorf("-alg: %w", err)
		}
		out = append(out, alg)
	}
	return out, nil
}

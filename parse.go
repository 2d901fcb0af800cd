// CLI-facing string↔enum conversions, shared by cmd/racksim, cmd/rackbench
// and sweep definitions built from user input.
package rackni

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rackni/internal/load"
	"rackni/internal/place"
)

// ParseDesign converts a design name (edge, pertile, per-tile, split) to
// its enumerator.
func ParseDesign(s string) (Design, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "edge":
		return NIEdge, nil
	case "pertile", "per-tile":
		return NIPerTile, nil
	case "split":
		return NISplit, nil
	}
	return 0, fmt.Errorf("rackni: unknown design %q (want edge|pertile|split)", s)
}

// ParseTopology converts a topology name (mesh, nocout, noc-out) to its
// enumerator.
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mesh":
		return Mesh, nil
	case "nocout", "noc-out":
		return NOCOut, nil
	}
	return 0, fmt.Errorf("rackni: unknown topology %q (want mesh|nocout)", s)
}

// ParseRouting converts a routing-policy name (xy, yx, o1turn, cdr, cdrni,
// cdr+ni) to its enumerator.
func ParseRouting(s string) (Routing, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "xy":
		return RoutingXY, nil
	case "yx":
		return RoutingYX, nil
	case "o1turn":
		return RoutingO1Turn, nil
	case "cdr":
		return RoutingCDR, nil
	case "cdrni", "cdr+ni":
		return RoutingCDRNI, nil
	}
	return 0, fmt.Errorf("rackni: unknown routing %q (want xy|yx|o1turn|cdr|cdrni)", s)
}

// ParseMode converts a microbenchmark name (latency, bandwidth) to its
// enumerator.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "latency":
		return Latency, nil
	case "bandwidth":
		return Bandwidth, nil
	}
	return 0, fmt.Errorf("rackni: unknown mode %q (want latency|bandwidth)", s)
}

// parseList splits a comma-separated flag value and parses each element.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseDesigns parses a comma-separated design list ("edge,split").
func ParseDesigns(s string) ([]Design, error) { return parseList(s, ParseDesign) }

// ParseTopologies parses a comma-separated topology list.
func ParseTopologies(s string) ([]Topology, error) { return parseList(s, ParseTopology) }

// ParseRoutings parses a comma-separated routing-policy list.
func ParseRoutings(s string) ([]Routing, error) { return parseList(s, ParseRouting) }

// ParseModes parses a comma-separated microbenchmark list.
func ParseModes(s string) ([]Mode, error) { return parseList(s, ParseMode) }

// ParseScenarios parses a comma-separated scenario-name list
// ("kv,pointerchase"), validating each against the library, and returns
// the canonical names for the Sweep's Workloads axis.
func ParseScenarios(s string) ([]string, error) {
	return parseList(s, func(tok string) (string, error) {
		sc, err := ParseScenario(tok)
		if err != nil {
			return "", err
		}
		return sc.Name, nil
	})
}

// ParseSizes parses a comma-separated list of positive transfer sizes in
// bytes ("64,4096").
func ParseSizes(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("rackni: bad size %q", tok)
		}
		return v, nil
	})
}

// ParseHops parses a comma-separated list of non-negative hop counts
// ("1,3,6"); 0 means the configuration's default.
func ParseHops(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 0 {
			return 0, fmt.Errorf("rackni: bad hop count %q", tok)
		}
		return v, nil
	})
}

// ParseCores parses a comma-separated list of non-negative core indices
// ("5,27,40").
func ParseCores(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 0 {
			return 0, fmt.Errorf("rackni: bad core %q", tok)
		}
		return v, nil
	})
}

// ParseNodeCounts parses a comma-separated list of positive node counts
// ("1,2,4"); 1 runs the single detailed node against the emulated rack,
// n > 1 a real n-node Cluster.
func ParseNodeCounts(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return 0, fmt.Errorf("rackni: bad node count %q", tok)
		}
		return v, nil
	})
}

// ParseShards parses a comma-separated list of positive shard counts
// ("1,2,4"); 1 runs a cluster on a single engine, k > 1 partitions its
// nodes across k engines synchronized at conservative window barriers.
func ParseShards(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return 0, fmt.Errorf("rackni: bad shard count %q", tok)
		}
		return v, nil
	})
}

// ParseDropRates parses a comma-separated list of fabric drop
// probabilities in [0, 1) ("0.001,0.01"); 0 means no fault injection.
func ParseDropRates(s string) ([]float64, error) {
	return parseList(s, func(tok string) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !validDropRate(v) {
			return 0, fmt.Errorf("rackni: bad drop rate %q (want [0, 1))", tok)
		}
		return v, nil
	})
}

// validDropRate reports whether v is a drop probability in [0, 1); NaN
// fails both comparisons.
func validDropRate(v float64) bool { return v >= 0 && v < 1 }

// validRate reports whether v is a positive, finite arrival rate.
func validRate(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ParseWindows parses a comma-separated list of non-negative QP credit
// windows ("1,4,16,0"); 0 means uncapped (WQ-depth bound only).
func ParseWindows(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 0 {
			return 0, fmt.Errorf("rackni: bad QP window %q", tok)
		}
		return v, nil
	})
}

// ParseFabricRouting converts a fabric routing-policy name (off, dor,
// adaptive) to its enumerator; "off" (or "none") is the lump-sum fabric.
func ParseFabricRouting(s string) (RoutePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "none":
		return RouteNone, nil
	case "dor":
		return RouteDOR, nil
	case "adaptive":
		return RouteAdaptive, nil
	}
	return 0, fmt.Errorf("rackni: unknown fabric routing %q (want off|dor|adaptive)", s)
}

// ParseFabricRoutings parses a comma-separated fabric routing-policy list
// ("dor,adaptive") for the Sweep's FabricRoutings axis.
func ParseFabricRoutings(s string) ([]RoutePolicy, error) {
	return parseList(s, ParseFabricRouting)
}

// ParsePlacement converts a placement-policy name to its PlacementPolicy.
// "uniform" (or "none") is the zero policy — the fixed-hop model; "torus"
// is another spelling of "identity".
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "none":
		return PlacementPolicy{}, nil
	case "torus":
		return PlaceIdentity, nil
	}
	p, err := place.Parse(s)
	if err != nil {
		return PlacementPolicy{}, fmt.Errorf("rackni: unknown placement %q (want uniform|identity|clustered|scattered|random:<seed>)", s)
	}
	return p, nil
}

// ParsePlacements parses a comma-separated placement-policy list
// ("identity,clustered,scattered") for the Sweep's Placements axis.
func ParsePlacements(s string) ([]PlacementPolicy, error) {
	return parseList(s, ParsePlacement)
}

// ParseArrivalKind converts an arrival-process name (poisson, bursty,
// diurnal) to its canonical form for ArrivalSpec.Kind.
func ParseArrivalKind(s string) (string, error) {
	k, err := load.ParseKind(s)
	if err != nil {
		return "", fmt.Errorf("rackni: unknown arrival kind %q (want %s)",
			s, strings.Join(load.Kinds(), "|"))
	}
	return k.String(), nil
}

// ParseArrivalKinds parses a comma-separated arrival-process list
// ("poisson,bursty") for the Sweep's Arrivals axis.
func ParseArrivalKinds(s string) ([]string, error) { return parseList(s, ParseArrivalKind) }

// ParseRates parses a comma-separated list of positive offered-load rates
// in requests per 1000 cycles per client ("0.5,2,8").
func ParseRates(s string) ([]float64, error) {
	return parseList(s, func(tok string) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !validRate(v) {
			return 0, fmt.Errorf("rackni: bad arrival rate %q (want finite > 0 req/kcycle)", tok)
		}
		return v, nil
	})
}

// ParseHedges parses a comma-separated list of non-negative hedge delays
// in cycles ("0,2000"); 0 disables hedging.
func ParseHedges(s string) ([]int64, error) {
	return parseList(s, func(tok string) (int64, error) {
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("rackni: bad hedge delay %q (want >= 0 cycles)", tok)
		}
		return v, nil
	})
}

// ParseSeeds parses a comma-separated list of simulation seeds ("1,2,3").
func ParseSeeds(s string) ([]uint64, error) {
	return parseList(s, func(tok string) (uint64, error) {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("rackni: bad seed %q", tok)
		}
		return v, nil
	})
}

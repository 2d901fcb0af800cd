// Package place defines named node-placement policies: deterministic
// mappings from cluster node indices onto coordinates of the rack's 3D
// torus. Placement is the rack-scale analogue of the paper's NI-placement
// question — where a node sits relative to the peers it talks to decides
// how many links its traffic crosses and which links it shares — and it
// only matters once links contend, so the policies here exist to be swept
// against the congestion-faithful fabric.
//
// Every policy is a pure function of (nodes, radix, seed): the same inputs
// always yield the same coordinate permutation, so placements are part of
// a simulation point's identity like any other axis.
package place

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"rackni/internal/sim"
)

// Kind enumerates the placement policies. The zero value None means "no
// named placement": the cluster keeps whatever geometry its spec gives it
// (uniform hops, explicit coordinates, or the congestion model's automatic
// identity placement), so zero-valued specs behave exactly as they did
// before policies existed.
type Kind int

const (
	// None is the unset policy (uniform fixed-hop model unless the spec
	// places nodes some other way).
	None Kind = iota
	// Identity places node i at torus coordinate i — consecutive indices
	// pack into x-major rows, the geometry of the paper's 512-node rack.
	Identity
	// Clustered packs consecutive node indices into 2x2x2 torus sub-cubes,
	// so communicating groups of ~8 sit within 3 hops of one another:
	// maximal locality, traffic concentrated on intra-cube links.
	Clustered
	// Scattered strides consecutive node indices across the whole torus
	// (a fixed golden-ratio stride coprime with the cube size), so group
	// peers sit near the torus diameter apart: maximal spread, long paths
	// shared across many links.
	Scattered
	// Random is a seeded uniform permutation of torus coordinates — the
	// "operator placed nodes wherever capacity allowed" baseline.
	Random
)

// Policy is one named placement: a kind plus, for Random, the permutation
// seed. The zero Policy (Kind == None) is "no named placement".
type Policy struct {
	Kind Kind
	Seed uint64 // Random only; ignored by the deterministic kinds
}

// IsZero reports whether the policy is unset.
func (p Policy) IsZero() bool { return p.Kind == None }

// String returns the canonical flag spelling: "identity", "clustered",
// "scattered", "random:<seed>" — and "uniform" for the zero policy, the
// fixed-hop model's name in CLIs and tables.
func (p Policy) String() string {
	switch p.Kind {
	case None:
		return "uniform"
	case Identity:
		return "identity"
	case Clustered:
		return "clustered"
	case Scattered:
		return "scattered"
	case Random:
		return fmt.Sprintf("random:%d", p.Seed)
	}
	return fmt.Sprintf("Kind(%d)", int(p.Kind))
}

// MarshalJSON renders the policy as its canonical name, so results carry
// "clustered" or "random:7" instead of an opaque enum pair.
func (p Policy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// Parse resolves a canonical policy name. A bare "random" means seed 1.
func Parse(s string) (Policy, error) {
	tok := strings.ToLower(strings.TrimSpace(s))
	switch tok {
	case "identity":
		return Policy{Kind: Identity}, nil
	case "clustered":
		return Policy{Kind: Clustered}, nil
	case "scattered":
		return Policy{Kind: Scattered}, nil
	case "random":
		return Policy{Kind: Random, Seed: 1}, nil
	}
	if rest, ok := strings.CutPrefix(tok, "random:"); ok {
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return Policy{}, fmt.Errorf("place: bad random placement seed %q (want random:<seed>)", rest)
		}
		return Policy{Kind: Random, Seed: seed}, nil
	}
	return Policy{}, fmt.Errorf("place: unknown placement policy %q (want identity|clustered|scattered|random:<seed>)", s)
}

// subCube is the clustered policy's block edge: consecutive nodes pack
// into subCube³ sub-cubes of the torus.
const subCube = 2

// Coordinates maps nodes 0..nodes-1 onto distinct coordinates of the
// radix³ torus under the policy. The result is always a prefix of a full
// permutation of the cube: every coordinate distinct and in range, so a
// cluster built from it passes Validate by construction.
func (p Policy) Coordinates(nodes, radix int) ([]int, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("place: need at least 1 node, got %d", nodes)
	}
	if radix < 1 {
		return nil, fmt.Errorf("place: torus radix %d must be positive", radix)
	}
	cube := radix * radix * radix
	if nodes > cube {
		return nil, fmt.Errorf("place: %d nodes exceed the %d-node torus (radix %d) under the %s placement",
			nodes, cube, radix, p)
	}
	switch p.Kind {
	case Identity:
		out := make([]int, nodes)
		for i := range out {
			out[i] = i
		}
		return out, nil
	case Clustered:
		return clusteredCoords(nodes, radix), nil
	case Scattered:
		return scatteredCoords(nodes, cube), nil
	case Random:
		return randomCoords(nodes, cube, p.Seed), nil
	}
	return nil, fmt.Errorf("place: the %s placement has no torus coordinates", p)
}

// clusteredCoords enumerates the torus block by block: 2x2x2 sub-cubes in
// x-major block order, cells within a block in x-major order (edge blocks
// are clipped at odd radices, keeping the enumeration a permutation).
func clusteredCoords(nodes, radix int) []int {
	out := make([]int, 0, nodes)
	blocks := (radix + subCube - 1) / subCube
	for bz := 0; bz < blocks; bz++ {
		for by := 0; by < blocks; by++ {
			for bx := 0; bx < blocks; bx++ {
				for z := bz * subCube; z < (bz+1)*subCube && z < radix; z++ {
					for y := by * subCube; y < (by+1)*subCube && y < radix; y++ {
						for x := bx * subCube; x < (bx+1)*subCube && x < radix; x++ {
							out = append(out, x+y*radix+z*radix*radix)
							if len(out) == nodes {
								return out
							}
						}
					}
				}
			}
		}
	}
	return out
}

// scatteredCoords walks the cube with a fixed stride near cube/φ, bumped
// to the next value coprime with the cube so the walk is a permutation:
// consecutive node indices land near the torus diameter apart, never
// clustering the way a rational stride would.
func scatteredCoords(nodes, cube int) []int {
	stride := cube * 61803 / 100000 // cube/φ, in integer arithmetic
	if stride < 1 {
		stride = 1
	}
	for gcd(stride, cube) != 1 {
		stride++ // terminates: cube-1 is always coprime with cube
	}
	out := make([]int, nodes)
	for i := range out {
		out[i] = i * stride % cube
	}
	return out
}

// randomCoords is a seeded partial Fisher-Yates shuffle of the cube's
// coordinates: the first nodes entries of a uniform permutation.
func randomCoords(nodes, cube int, seed uint64) []int {
	rng := sim.NewRand(seed ^ 0x9E37_79B9_7F4A_7C15)
	perm := make([]int, cube)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < nodes; i++ {
		j := i + rng.Intn(cube-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:nodes]
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Validate checks an explicit coordinate list (ClusterSpec's raw []int
// escape hatch): every coordinate must be on the radix³ torus and no two
// nodes may share one. Out-of-range or duplicate coordinates would
// otherwise yield bogus (even zero-hop) pairwise distances that poison
// the sharded engines' conservative lookahead. Errors name the offending
// node.
func Validate(coords []int, radix int) error {
	cube := radix * radix * radix
	seen := make(map[int]int, len(coords))
	for i, c := range coords {
		if c < 0 || c >= cube {
			return fmt.Errorf("place: node %d placed at coordinate %d outside the %d-node torus (radix %d)",
				i, c, cube, radix)
		}
		if j, dup := seen[c]; dup {
			return fmt.Errorf("place: nodes %d and %d both placed at torus coordinate %d", j, i, c)
		}
		seen[c] = i
	}
	return nil
}

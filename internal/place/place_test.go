package place

import (
	"reflect"
	"strings"
	"testing"

	"rackni/internal/fabric"
)

// checkPermutationPrefix asserts coords is a valid placement: the right
// length, every coordinate on the torus, no duplicates.
func checkPermutationPrefix(t *testing.T, coords []int, nodes, radix int) {
	t.Helper()
	if len(coords) != nodes {
		t.Fatalf("got %d coordinates for %d nodes", len(coords), nodes)
	}
	if err := Validate(coords, radix); err != nil {
		t.Fatalf("policy emitted an invalid placement: %v", err)
	}
}

// TestCoordinatesAreValidPermutations: every policy, across even and odd
// radices and partial/full cube occupancy, returns a distinct in-range
// coordinate per node — and is deterministic.
func TestCoordinatesAreValidPermutations(t *testing.T) {
	policies := []Policy{
		{Kind: Identity}, {Kind: Clustered}, {Kind: Scattered},
		{Kind: Random, Seed: 3}, {Kind: Random, Seed: 17},
	}
	shapes := []struct{ nodes, radix int }{
		{1, 1}, {2, 2}, {8, 2}, {5, 3}, {27, 3}, {16, 8}, {64, 8}, {512, 8},
	}
	for _, p := range policies {
		for _, sh := range shapes {
			coords, err := p.Coordinates(sh.nodes, sh.radix)
			if err != nil {
				t.Fatalf("%s (%d nodes, radix %d): %v", p, sh.nodes, sh.radix, err)
			}
			checkPermutationPrefix(t, coords, sh.nodes, sh.radix)
			again, err := p.Coordinates(sh.nodes, sh.radix)
			if err != nil || !reflect.DeepEqual(coords, again) {
				t.Fatalf("%s (%d nodes, radix %d): not deterministic", p, sh.nodes, sh.radix)
			}
		}
	}
}

// TestIdentityCoords: identity places node i at coordinate i.
func TestIdentityCoords(t *testing.T) {
	coords, err := Policy{Kind: Identity}.Coordinates(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(coords, want) {
		t.Fatalf("identity coords %v, want %v", coords, want)
	}
}

// groupSpread returns the mean pairwise torus distance within each
// consecutive group of g nodes, averaged over groups — the locality metric
// the clustered/scattered policies trade against each other.
func groupSpread(coords []int, radix, g int) float64 {
	topo := fabric.NewTorus3D(radix)
	var sum, pairs float64
	for base := 0; base+g <= len(coords); base += g {
		for i := base; i < base+g; i++ {
			for j := i + 1; j < base+g; j++ {
				sum += float64(topo.Hops(coords[i], coords[j]))
				pairs++
			}
		}
	}
	return sum / pairs
}

// TestClusteredPacksSubCubes: under the clustered policy every
// consecutive group of 8 occupies one 2x2x2 sub-cube — pairwise distance
// at most 3 hops — while scattered pushes the same groups wide apart and
// identity sits between them.
func TestClusteredPacksSubCubes(t *testing.T) {
	const nodes, radix, g = 64, 8, 8
	topo := fabric.NewTorus3D(radix)
	cl, err := Policy{Kind: Clustered}.Coordinates(nodes, radix)
	if err != nil {
		t.Fatal(err)
	}
	for base := 0; base+g <= nodes; base += g {
		for i := base; i < base+g; i++ {
			for j := base; j < base+g; j++ {
				if d := topo.Hops(cl[i], cl[j]); d > 3 {
					t.Fatalf("clustered nodes %d and %d are %d hops apart (coords %d, %d); a 2x2x2 sub-cube caps at 3",
						i, j, d, cl[i], cl[j])
				}
			}
		}
	}
	id, _ := Policy{Kind: Identity}.Coordinates(nodes, radix)
	sc, _ := Policy{Kind: Scattered}.Coordinates(nodes, radix)
	clSpread, idSpread, scSpread := groupSpread(cl, radix, g), groupSpread(id, radix, g), groupSpread(sc, radix, g)
	if !(clSpread < idSpread && idSpread < scSpread) {
		t.Fatalf("group spread ordering violated: clustered %.2f, identity %.2f, scattered %.2f",
			clSpread, idSpread, scSpread)
	}
}

// TestRandomSeedsDiffer: distinct seeds give distinct permutations, and
// the seed is part of the policy's printed identity.
func TestRandomSeedsDiffer(t *testing.T) {
	a, err := Policy{Kind: Random, Seed: 1}.Coordinates(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Policy{Kind: Random, Seed: 2}.Coordinates(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("random:1 and random:2 produced the same placement")
	}
}

// TestParseAndString: the canonical names round-trip; junk is rejected.
func TestParseAndString(t *testing.T) {
	good := map[string]Policy{
		"identity":  {Kind: Identity},
		"clustered": {Kind: Clustered},
		"scattered": {Kind: Scattered},
		"random":    {Kind: Random, Seed: 1},
		"random:42": {Kind: Random, Seed: 42},
		" Identity": {Kind: Identity},
	}
	for s, want := range good {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "uniform", "torus", "random:", "random:x", "nearest"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	for p, want := range map[Policy]string{
		{}:                      "uniform",
		{Kind: Identity}:        "identity",
		{Kind: Clustered}:       "clustered",
		{Kind: Scattered}:       "scattered",
		{Kind: Random, Seed: 7}: "random:7",
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestCoordinatesErrors: capacity, degenerate shapes and the zero policy
// are rejected with named errors.
func TestCoordinatesErrors(t *testing.T) {
	cases := []struct {
		p            Policy
		nodes, radix int
		want         string
	}{
		{Policy{Kind: Identity}, 513, 8, "exceed"},
		{Policy{Kind: Clustered}, 0, 8, "at least 1"},
		{Policy{Kind: Scattered}, 4, 0, "radix"},
		{Policy{}, 4, 8, "no torus coordinates"},
	}
	for _, c := range cases {
		if _, err := c.p.Coordinates(c.nodes, c.radix); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s (%d nodes, radix %d): err %v, want %q", c.p, c.nodes, c.radix, err, c.want)
		}
	}
}

// TestValidateNamesOffenders: the escape-hatch validator pins the failing
// node index (and both parties of a duplicate) in its message.
func TestValidateNamesOffenders(t *testing.T) {
	if err := Validate([]int{0, 1, 2}, 8); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	err := Validate([]int{0, 600}, 8)
	if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "600") {
		t.Fatalf("out-of-range error does not name node 1 at 600: %v", err)
	}
	err = Validate([]int{0, -1}, 8)
	if err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("negative-coordinate error does not name node 1: %v", err)
	}
	err = Validate([]int{3, 9, 3}, 8)
	if err == nil || !strings.Contains(err.Error(), "nodes 0 and 2") {
		t.Fatalf("duplicate error does not name nodes 0 and 2: %v", err)
	}
}

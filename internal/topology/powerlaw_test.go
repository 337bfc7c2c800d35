package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
)

func mustPowerLaw(t testing.TB, cfg PowerLawConfig) *Graph {
	t.Helper()
	g, err := GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatalf("GeneratePowerLaw(%+v): %v", cfg, err)
	}
	return g
}

func TestPowerLawValidate(t *testing.T) {
	base := DefaultPowerLawConfig(500)
	cases := []struct {
		name string
		mod  func(*PowerLawConfig)
	}{
		{"tier1 zero", func(c *PowerLawConfig) { c.Tier1 = 0 }},
		{"n too small", func(c *PowerLawConfig) { c.N = c.Tier1 + 1 }},
		{"transit frac zero", func(c *PowerLawConfig) { c.TransitFrac = 0 }},
		{"transit frac over one", func(c *PowerLawConfig) { c.TransitFrac = 1.5 }},
		{"exponent at one", func(c *PowerLawConfig) { c.Exponent = 1 }},
		{"negative max weight", func(c *PowerLawConfig) { c.MaxWeight = -1 }},
		{"max providers zero", func(c *PowerLawConfig) { c.MaxProviders = 0 }},
		{"negative peer mean", func(c *PowerLawConfig) { c.PeerMean = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			if _, err := GeneratePowerLaw(cfg); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

func TestDefaultPowerLawConfigScalesTier1(t *testing.T) {
	if got := DefaultPowerLawConfig(50).Tier1; got != 4 {
		t.Errorf("n=50: Tier1 = %d, want 4", got)
	}
	if got := DefaultPowerLawConfig(500).Tier1; got != 8 {
		t.Errorf("n=500: Tier1 = %d, want 8", got)
	}
	if got := DefaultPowerLawConfig(5000).Tier1; got != 16 {
		t.Errorf("n=5000: Tier1 = %d, want 16", got)
	}
	if got := Config73K().N; got != 73000 {
		t.Errorf("Config73K().N = %d, want 73000", got)
	}
}

func TestPowerLawDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultPowerLawConfig(3000)
	cfg.Seed = 99
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		g := mustPowerLaw(t, cfg)
		if g.Len() != cfg.N {
			t.Fatalf("workers=%d: Len = %d, want %d", workers, g.Len(), cfg.N)
		}
		enc := g.AppendCanonical(nil)
		if want == nil {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("workers=%d: canonical encoding differs from workers=1", workers)
		}
	}

	// A different seed must give a different graph.
	cfg.Seed = 100
	if bytes.Equal(mustPowerLaw(t, cfg).AppendCanonical(nil), want) {
		t.Fatal("seed change did not change the graph")
	}
}

// TestPowerLawGolden pins generator output from one commit to the next:
// the SHA-256 of the canonical encoding at 8K ASes for Workers 1 and 0,
// and of the shared 73K graph (skipped under -short and -race). A change
// to the generator, the per-stub RNG streams or the encoding moves them.
func TestPowerLawGolden(t *testing.T) {
	const want8K = "2149e547028e90d091800c57e8c3961add0b5aa1e0fe12f8112d7429cbe867d9"
	for _, workers := range []int{1, 0} {
		cfg := DefaultPowerLawConfig(8000)
		cfg.Workers = workers
		if got := canonicalSum(mustPowerLaw(t, cfg)); got != want8K {
			t.Errorf("8K workers=%d: canonical SHA-256 = %s, want %s", workers, got, want8K)
		}
	}
	graph73K(t)
	const want73K = "4ff7a95c092c1b276ddddcc9c4f6bb14f5bfd31ffc8503bacbc7724a63ac0946"
	if got := topo73k.sum; got != want73K {
		t.Errorf("73K: canonical SHA-256 = %s, want %s", got, want73K)
	}
}

func canonicalSum(g *Graph) string {
	sum := sha256.Sum256(g.AppendCanonical(nil))
	return hex.EncodeToString(sum[:])
}

// TestPowerLawAllocBudget pins the generator's allocation at 8K ASes
// (about 2.3 MiB). Seeding a full math/rand source per stub allocated
// 41 MiB here, so this fails if the stubs stop using the lazily seeded
// per-trial RNG.
func TestPowerLawAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mustPowerLaw(t, DefaultPowerLawConfig(8000))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("GeneratePowerLaw(8000) allocated %.1f MiB, budget %d MiB", float64(got)/(1<<20), budget>>20)
	}
}

func TestPowerLawStructure(t *testing.T) {
	cfg := DefaultPowerLawConfig(800)
	g := mustPowerLaw(t, cfg)

	wantCorePeerings := cfg.Tier1 * (cfg.Tier1 - 1) / 2
	corePeerings := 0
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		switch a.Tier {
		case 1:
			if len(a.Providers()) != 0 {
				t.Errorf("core AS %v has providers %v", asn, a.Providers())
			}
			for _, p := range a.Peers() {
				if int(p) <= cfg.Tier1 {
					corePeerings++
				}
			}
		case 2, 3:
			if len(a.Providers()) == 0 {
				t.Errorf("tier-%d AS %v has no provider", a.Tier, asn)
			}
			if a.Tier == 3 && len(a.Customers()) != 0 {
				t.Errorf("stub %v has customers %v", asn, a.Customers())
			}
		default:
			t.Errorf("AS %v has unexpected tier %d", asn, a.Tier)
		}
	}
	if corePeerings/2 != wantCorePeerings {
		t.Errorf("core peerings = %d, want full clique %d", corePeerings/2, wantCorePeerings)
	}
	if l := g.Links(); l < cfg.N {
		t.Errorf("Links() = %d, suspiciously sparse for %d ASes", l, cfg.N)
	}
}

func TestParetoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		w := pareto(rng, 2.1, 50)
		if w < 1 || w > 50 {
			t.Fatalf("pareto draw %v outside [1, 50]", w)
		}
	}
}

func TestWeightedPickProportional(t *testing.T) {
	// cum encodes weights {1, 10}: index 1 should win ~10x more often.
	cum := []float64{0, 1, 11}
	rng := rand.New(rand.NewSource(2))
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		j := weightedPick(rng, cum)
		if j < 0 || j > 1 {
			t.Fatalf("weightedPick out of range: %d", j)
		}
		counts[j]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 8 || ratio > 12.5 {
		t.Errorf("weight-10 picked %.1fx weight-1, want ~10x", ratio)
	}
}

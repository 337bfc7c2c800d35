package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/obs"
	"quicksand/internal/par"
	"quicksand/internal/resilience"
	"quicksand/internal/topology"
)

// The 73K routing study: sizes are fixed so every run does the same work.
const (
	studyDests       = 64 // destinations of the RouteSet
	studyUplinkFlaps = 32 // flaps of a tracked destination's provider link
	studyStubFlaps   = 32 // flaps of links to a customer-less AS
	studyGuards      = 4  // guard ASes of the resilience matrix
	studyAttackers   = 32 // sampled attackers per guard
	studyCheckTables = 8  // tables compared against a fresh RecomputeAll
	studyPasses      = 5  // timed passes per run; medians are reported
)

// studyResult is what the study process reports to the benchmark.
type studyResult struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	SetupS     []float64 `json:"setup_s"`
	GenerateS  []float64 `json:"generate_s"`
	CompileS   []float64 `json:"compile_s"`

	CompiledBytesPerAS float64 `json:"compiled_bytes_per_as"`
	RouteS             float64 `json:"route_s"`
	TableBytesPerAS    float64 `json:"table_bytes_per_as"`
	DeltaMeanMS        float64 `json:"delta_mean_ms"`
	DeltaP95MS         float64 `json:"delta_p95_ms"`
	DeltaLocalFrac     float64 `json:"delta_local_frac"`
	MatrixS            float64 `json:"matrix_s"`
	MatrixTables       int     `json:"matrix_tables"`
	StudyS             float64 `json:"study_s"`
	ParBusyFrac        float64 `json:"par_busy_frac"`
	TopoAllocMB        float64 `json:"topo_alloc_mb"`
	ResilAllocMB       float64 `json:"resil_alloc_mb"`
	GCCycles           float64 `json:"gc_cycles"`
	PeakRSSMiB         float64 `json:"peak_rss_mib"`
	Digest             string  `json:"digest"`

	FailedChecks []string `json:"failed_checks"`
	Spans        []span   `json:"spans,omitempty"`
}

// runtimeCounters reads cumulative heap allocation (MiB) and GC cycles.
func runtimeCounters() (allocMB, gcs float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20), float64(s[1].Value.Uint64())
}

// runStudy generates and compiles the 73K-AS graph setups times (the
// set-up), then times studyPasses passes of route tables, single-link
// churn through RouteSet.Apply and a sampled resilience matrix, and
// finally checks the churned tables and the matrix outside the timed
// passes. stateDir keeps matrix digests across runs.
func runStudy(seed int64, setups int, traced bool, stateDir string) (*studyResult, error) {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	res := &studyResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// The graph is the one 73K Internet of topology.Config73K; the seed
	// draws everything the study does on it.
	cfg := topology.Config73K()
	var g *topology.Graph
	for i := 0; i < setups; i++ {
		g = nil
		runtime.GC() // the previous graph is garbage; keep it out of the peak
		t0 := time.Now()
		var err error
		if g, err = topology.GeneratePowerLaw(cfg); err != nil {
			return nil, err
		}
		t1 := time.Now()
		c := g.Compiled()
		t2 := time.Now()
		res.GenerateS = append(res.GenerateS, t1.Sub(t0).Seconds())
		res.CompileS = append(res.CompileS, t2.Sub(t1).Seconds())
		res.SetupS = append(res.SetupS, t2.Sub(t0).Seconds())
		res.CompiledBytesPerAS = float64(c.MemoryBytes()) / float64(g.Len())
		rec.addTimes("study.generate", -1, 0, t0, t1, nil)
		rec.addTimes("study.compile", -1, 0, t1, t2, nil)
	}
	asns := append([]bgp.ASN(nil), g.ASNs()...)
	rng := rand.New(rand.NewSource(seed))
	pick := func(n int) []bgp.ASN {
		seen := make(map[bgp.ASN]bool, n)
		var out []bgp.ASN
		for len(out) < n {
			if a := asns[rng.Intn(len(asns))]; !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		return out
	}
	dests := pick(studyDests)
	guards := pick(studyGuards)
	flaps := flapEdges(g, rng, dests)

	var ob *par.Observer
	if traced {
		ob = par.NewObserver(obs.NewRegistry())
		par.SetObserver(ob)
		defer par.SetObserver(nil)
	}
	rcfg := resilience.Config{Guards: guards, Attackers: studyAttackers, Seed: seed}
	var passes []*studyPass
	var rs *topology.RouteSet
	var mx *resilience.Matrix
	for i := 0; i < studyPasses; i++ {
		rs, mx = nil, nil
		runtime.GC()
		var p *studyPass
		var err error
		if p, rs, mx, err = timedPass(g, dests, flaps, rcfg, rec, ob); err != nil {
			return nil, err
		}
		if i > 0 && p.digest != passes[0].digest {
			res.FailedChecks = append(res.FailedChecks,
				fmt.Sprintf("resilience digest %s on pass %d, %s on pass 0", p.digest, i, passes[0].digest))
		}
		passes = append(passes, p)
	}
	med := func(f func(*studyPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	res.StudyS = med(func(p *studyPass) float64 { return p.studyS })
	res.RouteS = med(func(p *studyPass) float64 { return p.routeS })
	res.DeltaMeanMS = med(func(p *studyPass) float64 { return p.deltaMeanMS })
	res.DeltaP95MS = med(func(p *studyPass) float64 { return p.deltaP95MS })
	res.MatrixS = med(func(p *studyPass) float64 { return p.matrixS })
	res.TopoAllocMB = med(func(p *studyPass) float64 { return p.topoAllocMB })
	res.ResilAllocMB = med(func(p *studyPass) float64 { return p.resilAllocMB })
	res.GCCycles = med(func(p *studyPass) float64 { return p.gcCycles })
	res.ParBusyFrac = med(func(p *studyPass) float64 { return p.busyFrac })
	res.DeltaLocalFrac = passes[0].deltaLocalFrac
	res.TableBytesPerAS = passes[0].tableBytesPerAS
	res.MatrixTables = mx.Tables()
	res.Digest = passes[0].digest

	// Checks, outside the timed phase.
	t4 := time.Now()
	res.FailedChecks = append(res.FailedChecks, checkTables(rs, rng)...)
	rcfg.Workers = 1
	serial, err := resilience.Compute(g, rcfg, nil)
	if err != nil {
		return nil, err
	}
	if d := digest(serial); d != res.Digest {
		res.FailedChecks = append(res.FailedChecks,
			fmt.Sprintf("resilience digest %s with 1 worker, %s with %d", d, res.Digest, par.Workers(0)))
	}
	if msg := checkStoredDigest(stateDir, seed, res.Digest); msg != "" {
		res.FailedChecks = append(res.FailedChecks, msg)
	}
	rec.addTimes("study.check", -1, 0, t4, time.Now(), nil)

	if res.PeakRSSMiB, err = peakRSSMiB("self"); err != nil {
		return nil, err
	}
	if rec != nil {
		res.Spans = rec.spans
	}
	return res, nil
}

// studyPass is the timing of one pass over the study's timed phases.
type studyPass struct {
	studyS, routeS, matrixS   float64
	deltaMeanMS, deltaP95MS   float64
	deltaLocalFrac            float64
	tableBytesPerAS           float64
	topoAllocMB, resilAllocMB float64
	gcCycles, busyFrac        float64
	digest                    string
}

// timedPass builds the route tables, drives the churn through
// RouteSet.Apply and computes the resilience matrix, timing each phase.
// The churn restores every link it removes, so each pass starts from the
// same graph. ob, when set, is the installed par observer.
func timedPass(g *topology.Graph, dests []bgp.ASN, flaps []topology.Mutation, rcfg resilience.Config,
	rec *recorder, ob *par.Observer) (*studyPass, *topology.RouteSet, *resilience.Matrix, error) {
	p := &studyPass{}
	var busy0 uint64
	if ob != nil {
		busy0 = ob.BusyNS.Value()
	}
	alloc0, gc0 := runtimeCounters()

	t0 := time.Now()
	rs, err := topology.NewRouteSet(g, dests, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	t1 := time.Now()
	p.routeS = t1.Sub(t0).Seconds()
	p.tableBytesPerAS = float64(rs.MemoryBytes()) / float64(g.Len()) / float64(len(dests))
	rec.addTimes("study.route", -1, 0, t0, t1, map[string]any{"tables": len(dests)})

	var deltaMS []float64
	pairs, local := 0, 0
	for _, m := range flaps {
		s := time.Now()
		st, err := rs.Apply(m)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("apply %v %v-%v: %w", m.Op, m.A, m.B, err)
		}
		e := time.Now()
		deltaMS = append(deltaMS, ms(e.Sub(s)))
		pairs += len(dests)
		local += len(dests) - st.Affected + st.Repaired
		rec.addTimes("study.apply", -1, 0, s, e, map[string]any{"affected": st.Affected, "repaired": st.Repaired})
	}
	t2 := time.Now()
	p.deltaMeanMS = mean(deltaMS)
	p.deltaP95MS = quantile(deltaMS, 0.95)
	p.deltaLocalFrac = float64(local) / float64(pairs)
	alloc1, _ := runtimeCounters()

	mx, err := resilience.Compute(g, rcfg, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	t3 := time.Now()
	alloc2, gc2 := runtimeCounters()
	rec.addTimes("study.matrix", -1, 0, t2, t3, map[string]any{"tables": mx.Tables()})
	p.matrixS = t3.Sub(t2).Seconds()
	p.studyS = t3.Sub(t0).Seconds()
	p.topoAllocMB = alloc1 - alloc0
	p.resilAllocMB = alloc2 - alloc1
	p.gcCycles = gc2 - gc0
	if ob != nil {
		p.busyFrac = float64(ob.BusyNS.Value()-busy0) / (float64(par.Workers(0)) * float64(t3.Sub(t0)))
	}
	p.digest = digest(mx)
	return p, rs, mx, nil
}

// flapEdges draws the churn as link flaps, each a removal followed by
// its restoration: one provider link of each of the first studyUplinkFlaps
// multihomed, customer-less tracked destinations, which moves that
// destination's whole table and no other (about 40 of the 64 qualify),
// and
// studyStubFlaps links to customer-less ASes anywhere, which Apply repairs
// in place or skips. Flapping links whose reach is known, rather than
// uniformly drawn ones, keeps the work of a run steady across seeds: one
// flap of a core link can refixpoint every table while most flaps touch
// none.
func flapEdges(g *topology.Graph, rng *rand.Rand, dests []bgp.ASN) []topology.Mutation {
	var out []topology.Mutation
	flap := func(provider, customer bgp.ASN) {
		out = append(out,
			topology.Mutation{Op: topology.MutRemoveLink, A: provider, B: customer},
			topology.Mutation{Op: topology.MutAddLink, A: provider, B: customer})
	}
	n := 0
	for _, d := range dests {
		if ps := g.AS(d).Providers(); n < studyUplinkFlaps && len(ps) > 1 && len(g.AS(d).Customers()) == 0 {
			flap(ps[rng.Intn(len(ps))], d)
			n++
		}
	}
	var stubs [][2]bgp.ASN
	for _, asn := range g.ASNs() {
		for _, c := range g.AS(asn).Customers() {
			if len(g.AS(c).Customers()) == 0 {
				stubs = append(stubs, [2]bgp.ASN{asn, c})
			}
		}
	}
	for i := 0; i < studyStubFlaps; i++ {
		l := stubs[rng.Intn(len(stubs))]
		flap(l[0], l[1])
	}
	return out
}

// checkTables compares a sample of the churned tables with a fresh
// RecomputeAll of the same graph.
func checkTables(rs *topology.RouteSet, rng *rand.Rand) []string {
	idx := rng.Perm(len(rs.Dests()))[:studyCheckTables]
	before := make([][]topology.Route, len(idx))
	for k, i := range idx {
		t := rs.TableAt(i)
		before[k] = make([]topology.Route, t.Len())
		for j := range before[k] {
			before[k][j] = t.At(j)
		}
	}
	if err := rs.RecomputeAll(); err != nil {
		return []string{"recompute: " + err.Error()}
	}
	var failed []string
	for k, i := range idx {
		t := rs.TableAt(i)
		if t.Len() != len(before[k]) {
			failed = append(failed, fmt.Sprintf("table to %v: %d rows after churn, %d recomputed", rs.Dests()[i], len(before[k]), t.Len()))
			continue
		}
		for j, r := range before[k] {
			if t.At(j) != r {
				failed = append(failed, fmt.Sprintf("table to %v: AS %v routes %+v after churn, %+v recomputed",
					rs.Dests()[i], t.ASN(j), r, t.At(j)))
				break
			}
		}
	}
	return failed
}

// digest hashes every resilience value of the matrix.
func digest(m *resilience.Matrix) string {
	h := sha256.New()
	var b [8]byte
	for gi := range m.Guards() {
		for id := 0; id < m.Clients(); id++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.RAt(int32(id), gi)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkStoredDigest compares the digest with the one an earlier run of
// the same seed and sizes recorded in this checkout, recording it on the
// first run.
func checkStoredDigest(stateDir string, seed int64, d string) string {
	path := filepath.Join(stateDir, fmt.Sprintf("digest-seed%d-g%d-a%d.txt", seed, studyGuards, studyAttackers))
	prev, err := os.ReadFile(path)
	if err != nil {
		if werr := os.WriteFile(path, []byte(d), 0o644); werr != nil {
			return "record digest: " + werr.Error()
		}
		return ""
	}
	if string(prev) != d {
		return fmt.Sprintf("resilience digest %s differs from %s recorded for seed %d", d, prev, seed)
	}
	return ""
}

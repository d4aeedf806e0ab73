package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/workload"
)

// probed is a unique-row NMOS chip with one inert metal probe on its top
// (element -1), which a window edit moves. Each call builds a new design
// of the same content, as each session parses its own text.
func probed() *layout.Design {
	nm := tech.NMOS()
	d := workload.NewChipUnique(nm, "probed", 4, 6).Design
	metal, _ := nm.LayerByName(tech.NMOSMetal)
	d.Top.AddBox(metal, geom.R(-15000, 0, -14250, 1000), "")
	return d
}

// moveProbe moves the probe by dy.
func moveProbe(t *testing.T, d *layout.Design, dy int64) {
	t.Helper()
	if err := layout.ApplyEdit(d, tech.NMOS(), layout.Edit{Op: layout.OpMoveElement, Symbol: d.Top.Name, Index: -1, DY: dy}); err != nil {
		t.Fatal(err)
	}
}

// coldFingerprint checks d on a library engine of its own.
func coldFingerprint(t *testing.T, d *layout.Design, tc *tech.Technology) string {
	t.Helper()
	rep, err := NewEngine(tc, Options{}).Check(d)
	if err != nil {
		t.Fatal(err)
	}
	return Fingerprint(rep)
}

// TestSharedTierCreateBuildsNothing: an engine that checks a text another
// engine over its tier holds builds no artifact, embedding, own entry,
// interaction cache or tally, and reports what a library engine reports.
// Everything it finds is the first engine's value: the root artifact and
// its interaction cache, the own entries' stage results, the device
// analyses, and the root's device-text memo, which the second report's
// digest reads instead of rendering the devices again.
func TestSharedTierCreateBuildsNothing(t *testing.T) {
	cm := tech.CMOS()
	tier := netlist.NewTier()
	a, b := NewEngineOn(tier, cm, Options{}), NewEngineOn(tier, cm, Options{})
	da := workload.NewCMOSChip(cm, "shared", 3, 4).Design
	db := workload.NewCMOSChip(cm, "shared", 3, 4).Design
	repA, err := a.Check(da)
	if err != nil {
		t.Fatal(err)
	}
	FingerprintDigest(repA)
	before := deviceSections.Load()
	repB, err := b.Check(db)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Built.Total() != 0 || st.InterBuilt != 0 || st.SigMisses != 0 || st.CtxMisses+st.CtxHits != 0 {
		t.Fatalf("the second engine built %+v, %d interaction caches, %d tallies and %d/%d embeddings; want nothing",
			st.Built, st.InterBuilt, st.SigMisses, st.CtxHits, st.CtxMisses)
	}
	if st.Taken.Artifacts != a.cache.Len() || st.Taken.Owns == 0 || st.Taken.Spans == 0 {
		t.Fatalf("the second engine took %+v; want the first engine's %d artifacts, its embeddings and own entries", st.Taken, a.cache.Len())
	}
	if got, want := Fingerprint(repB), coldFingerprint(t, workload.NewCMOSChip(cm, "shared", 3, 4).Design, cm); got != want {
		t.Fatalf("shared-tier report %s, library engine %s", got, want)
	}
	if repA.Netlist == repB.Netlist || &repA.Netlist.Devices[0] != &repB.Netlist.Devices[0] {
		t.Fatal("the two reports do not share the root's devices under netlists of their own")
	}
	FingerprintDigest(repB)
	FingerprintDigest(repA)
	if n := deviceSections.Load() - before; n != 1 {
		t.Fatalf("digesting two netlists over one root rendered its devices %d times, want once", n)
	}
	for _, s := range da.SortedSymbols() {
		sb, _ := db.Symbol(s.Name)
		ra, rb := a.own(s.Hashes().Own), b.own(sb.Hashes().Own)
		if ra != rb || !s.IsPrimitive() && (ra.elems.Load() == nil || ra.rules.Load() == nil) {
			t.Fatalf("symbol %s: the engines keep own results %p and %p", s.Name, ra, rb)
		}
		if s.IsPrimitive() {
			ia, _ := a.cache.Analyze(s, s.Hashes().Own, cm)
			ib, _ := b.cache.Analyze(sb, sb.Hashes().Own, cm)
			if ia != ib {
				t.Fatalf("symbol %s analysed twice", s.Name)
			}
		}
	}
	// An unchanged design answers from each engine's last extraction.
	ia, _, err := netlist.ExtractIncremental(da, cm, a.cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	ib, _, err := netlist.ExtractIncremental(db, cm, b.cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ia.Root != ib.Root || a.cachedInter(ia.Root) == nil || a.cachedInter(ia.Root) != b.cachedInter(ib.Root) {
		t.Fatal("the engines do not share the root artifact and its interaction cache")
	}
	a.Close()
	b.Close()
	if s := tier.Stats(); s.Entries != 0 || s.Views != 0 {
		t.Fatalf("both engines closed: %+v", s)
	}
	if _, err := a.Check(da); err == nil {
		t.Fatal("a closed engine ran")
	}
}

// TestWindowPatchCountsAsFullRun: a window-patched run counts what a full
// run over the same state counts — every instance's interaction cache
// reused, one signature hit per instance whose definition has pairs —
// where it used to count one reuse and a hit per instance.
func TestWindowPatchCountsAsFullRun(t *testing.T) {
	nm := tech.NMOS()
	d := probed()
	eng := NewEngine(nm, Options{})
	if _, err := eng.Check(d); err != nil {
		t.Fatal(err)
	}
	moveProbe(t, d, 250)
	if _, err := eng.Recheck(d); err != nil {
		t.Fatal(err)
	}
	patched := eng.Stats()
	if !patched.WindowPatched {
		t.Fatalf("the probe move was not window-patched: %s", patched.FullPath)
	}

	// A full run over the same state with every cache warm: a second
	// engine that takes everything from a tier a first engine filled.
	tier := netlist.NewTier()
	for range 2 {
		d := probed()
		moveProbe(t, d, 250)
		if _, err := NewEngineOn(tier, nm, Options{}).Check(d); err != nil {
			t.Fatal(err)
		}
	}
	full := NewEngineOn(tier, nm, Options{})
	same := probed()
	moveProbe(t, same, 250)
	if _, err := full.Check(same); err != nil {
		t.Fatal(err)
	}
	warm := full.Stats()
	if warm.WindowPatched || warm.InterBuilt != 0 || warm.SigMisses != 0 {
		t.Fatalf("the full run is not warm: %s", warm)
	}
	if patched.SigHits != warm.SigHits || patched.InterReused != warm.InterReused ||
		patched.InterBuilt != 0 || patched.SigMisses != 0 {
		t.Fatalf("window-patched run: %s\nfull warm run:      %s", patched, warm)
	}
}

// stopAfter is a context that reports cancellation from its n+1st Err on:
// the engine asks at every stage boundary, so n picks the stage a run is
// cancelled before.
type stopAfter struct {
	context.Context
	n atomic.Int32
}

func (c *stopAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledRunPublishesNothing: an engine over a tier another engine
// holds, whose check of a new text over the same cells is cancelled before
// any stage, leaves the tier as it found it once it is closed: what it
// built of the new text goes with it, and the other engine's values stay.
func TestCancelledRunPublishesNothing(t *testing.T) {
	cm := tech.CMOS()
	tier := netlist.NewTier()
	resident := NewEngineOn(tier, cm, Options{})
	if _, err := resident.Check(workload.NewCMOSChip(cm, "x", 3, 4).Design); err != nil {
		t.Fatal(err)
	}
	base := tier.Stats().Entries
	stages := 0
	for n := 0; ; n++ {
		eng := NewEngineOn(tier, cm, Options{})
		ctx := &stopAfter{Context: context.Background()}
		ctx.n.Store(int32(n))
		_, err := eng.CheckContext(ctx, workload.NewCMOSChip(cm, "y", 4, 3).Design)
		eng.Close()
		if got := tier.Stats().Entries; got != base {
			t.Fatalf("a run cancelled after %d stages left %d entries in the tier, want %d", n, got, base)
		}
		if err == nil {
			stages = n
			break
		}
	}
	if stages < 5 {
		t.Fatalf("the check finished after %d stage boundaries; the test cancels nothing after extraction", stages)
	}
	again := NewEngineOn(tier, cm, Options{})
	rep, err := again.Check(workload.NewCMOSChip(cm, "x", 3, 4).Design)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.Built.Total() != 0 || st.InterBuilt != 0 {
		t.Fatalf("the resident text rebuilt %+v after the cancelled runs", st.Built)
	}
	if got, want := Fingerprint(rep), coldFingerprint(t, workload.NewCMOSChip(cm, "x", 3, 4).Design, cm); got != want {
		t.Fatalf("after the cancelled runs: %s, library engine %s", got, want)
	}
}

// TestSharedTierConcurrentEngines: engines over one tier check one text
// and two other texts over the same cells at once, each twice, and every
// report equals a library engine's; once they are closed the tier is
// empty. Run under -race it is the tier's publication test.
func TestSharedTierConcurrentEngines(t *testing.T) {
	cm := tech.CMOS()
	shapes := [][2]int{{3, 4}, {4, 3}, {2, 5}}
	want := make([]string, len(shapes))
	for i, s := range shapes {
		want[i] = coldFingerprint(t, workload.NewCMOSChip(cm, "c", s[0], s[1]).Design, cm)
	}
	tier := netlist.NewTier()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := NewEngineOn(tier, cm, Options{})
			defer eng.Close()
			s := shapes[g%len(shapes)]
			for k := 0; k < 2; k++ {
				rep, err := eng.Check(workload.NewCMOSChip(cm, "c", s[0], s[1]).Design)
				if err != nil {
					errs <- err
					return
				}
				if got := Fingerprint(rep); got != want[g%len(shapes)] {
					errs <- fmt.Errorf("engine %d run %d: %s, library engine %s", g, k, got, want[g%len(shapes)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := tier.Stats(); st.Entries != 0 || st.Views != 0 {
		t.Fatalf("every engine closed: %+v", st)
	}
}

// TestPatchRacesSharedCheck: while one engine window-patches the root it
// alone holds, other engines over the same tier check the text the edit
// produces, and may take the patched root the moment it is filed again.
// Every report equals a library engine's, round after round, and the
// patching engine's runs stay window-patched. Run under -race it is the
// test that a root is filed again only once the patch is done with
// everything on it.
func TestPatchRacesSharedCheck(t *testing.T) {
	nm := tech.NMOS()
	state := func(s int) *layout.Design {
		d := probed()
		moveProbe(t, d, 250)
		if s == 1 {
			moveProbe(t, d, -250)
		}
		return d
	}
	want := [2]string{coldFingerprint(t, state(0), nm), coldFingerprint(t, state(1), nm)}
	dys := [2]int64{250, -250}
	tier := netlist.NewTier()
	patcher := NewEngineOn(tier, nm, Options{})
	defer patcher.Close()
	d1 := probed()
	if _, err := patcher.Check(d1); err != nil {
		t.Fatal(err)
	}
	const others = 4
	for round := 0; round < 24; round++ {
		s := round % 2
		moveProbe(t, d1, dys[s])
		var wg sync.WaitGroup
		errs := make(chan error, others)
		for g := 0; g < others; g++ {
			d2, eng := state(s), NewEngineOn(tier, nm, Options{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer eng.Close()
				rep, err := eng.Check(d2)
				if err == nil && Fingerprint(rep) != want[s] {
					err = fmt.Errorf("another engine reports %s, library engine %s", Fingerprint(rep), want[s])
				}
				if err != nil {
					errs <- err
				}
			}()
		}
		rep, err := patcher.Recheck(d1)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st := patcher.Stats(); !st.WindowPatched {
			t.Fatalf("round %d: the probe move was not window-patched: %s", round, st.FullPath)
		}
		if got := Fingerprint(rep); got != want[s] {
			t.Fatalf("round %d: the patching engine reports %s, library engine %s", round, got, want[s])
		}
	}
}

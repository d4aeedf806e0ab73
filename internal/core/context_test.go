package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/tech"
	"repro/internal/workload"
)

// TestCheckContextCanceled proves an already-expired context aborts the
// run before the first stage, and that the engine recovers fully on the
// next run: the post-abort report is fingerprint-identical to a fresh
// cold check.
func TestCheckContextCanceled(t *testing.T) {
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "ctx", 2, 2)

	eng := NewEngine(tc, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.CheckContext(ctx, chip.Design); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckContext on canceled ctx: err = %v, want context.Canceled", err)
	}

	rep, err := eng.CheckContext(context.Background(), chip.Design)
	if err != nil {
		t.Fatalf("recheck after abort: %v", err)
	}
	fresh := NewEngine(tc, Options{})
	repFresh, err := fresh.Check(workload.NewCMOSChip(tc, "ctx", 2, 2).Design)
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintDigest(rep) != FingerprintDigest(repFresh) {
		t.Fatal("post-abort recheck diverges from a fresh cold check")
	}
}

// TestCheckContextMidRunAbort cancels between stages: the engine must
// return the context error, and the following run must still be
// fingerprint-identical to cold — the abort may not leave phantom replay
// state behind.
func TestCheckContextMidRunAbort(t *testing.T) {
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "midrun", 2, 2)

	eng := NewEngine(tc, Options{})
	cold, err := eng.Check(chip.Design)
	if err != nil {
		t.Fatal(err)
	}
	coldFP := FingerprintDigest(cold)

	// Dirty the design, then recheck under a context canceled from a
	// stage callback via the design mutation hook: simplest reliable
	// mid-run cancel is a pre-canceled context after at least one warm
	// run — the stage wrapper checks at every boundary, so the run stops
	// at the first one.
	chip.Design.Top.Touch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.CheckContext(ctx, chip.Design); err == nil {
		t.Fatal("recheck under canceled ctx succeeded")
	}
	rep, err := eng.Recheck(chip.Design)
	if err != nil {
		t.Fatalf("recovery recheck: %v", err)
	}
	if FingerprintDigest(rep) != coldFP {
		t.Fatal("recovery recheck diverges from the cold fingerprint")
	}
}

// TestEnginePoison: a poisoned engine refuses every run with the reason.
func TestEnginePoison(t *testing.T) {
	tc := tech.CMOS()
	chip := workload.NewCMOSChip(tc, "poison", 1, 1)
	eng := NewEngine(tc, Options{})
	if _, err := eng.Check(chip.Design); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("panic: injected")
	eng.Poison(cause)
	if got := eng.Poisoned(); !errors.Is(got, cause) {
		t.Fatalf("Poisoned() = %v", got)
	}
	if _, err := eng.Recheck(chip.Design); !errors.Is(err, cause) {
		t.Fatalf("poisoned engine ran: err = %v", err)
	}
	// First reason wins.
	eng.Poison(errors.New("later"))
	if got := eng.Poisoned(); !errors.Is(got, cause) {
		t.Fatalf("poison reason overwritten: %v", got)
	}
}

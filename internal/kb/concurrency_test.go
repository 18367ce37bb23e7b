package kb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdb/internal/term"
)

// TestConcurrentQueriesAssertsCheckpoints is the lock-discipline
// stress test: readers (retrieve statements, LastStats), writers
// (Assert), and checkpoints all run concurrently against a durable KB.
// On the seed this raced — checkpoint and Close bypassed k.mu, so a
// checkpoint could truncate the WAL under a running assert. Run with
// -race.
func TestConcurrentQueriesAssertsCheckpoints(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.LoadString("p(seed0). q(X) :- p(X)."); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := k.Assert(term.NewAtom("p", term.Sym(fmt.Sprintf("w%d_%d", w, i)))); err != nil {
					fail("assert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := k.ExecStringContext(ctx, "retrieve q(X)."); err != nil {
					fail("retrieve: %v", err)
					return
				}
				_ = k.LastStats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.CheckpointContext(ctx); err != nil {
				fail("checkpoint: %v", err)
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Everything written before the checkpoints must still be
	// derivable after reopening.
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderLoad closes the KB while queries and mutations are in
// flight: every operation either completes normally or reports
// ErrClosed — never a raw I/O error from the store closing underneath
// an evaluation.
func TestCloseUnderLoad(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString("p(a). p(b). q(X) :- p(X)."); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var unexpected atomic.Int32
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				var err error
				switch w % 3 {
				case 0:
					_, err = k.ExecStringContext(ctx, "retrieve q(X).")
				case 1:
					err = k.Assert(term.NewAtom("p", term.Sym(fmt.Sprintf("c%d_%d", w, i))))
				case 2:
					err = k.CheckpointContext(ctx)
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						unexpected.Add(1)
						t.Errorf("worker %d: unstructured post-close error: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := k.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	wg.Wait()

	// Idempotent double close.
	if err := k.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// Every entry point reports the structured error now.
	if _, err := k.ExecStringContext(ctx, "retrieve q(X)."); !errors.Is(err, ErrClosed) {
		t.Errorf("retrieve after close: %v", err)
	}
	if err := k.Assert(term.NewAtom("p", term.Sym("late"))); !errors.Is(err, ErrClosed) {
		t.Errorf("assert after close: %v", err)
	}
	if err := k.CheckpointContext(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("checkpoint after close: %v", err)
	}
	if _, err := k.Retract(term.NewAtom("p", term.Sym("a"))); !errors.Is(err, ErrClosed) {
		t.Errorf("retract after close: %v", err)
	}
	if err := k.LoadString("r(z)."); !errors.Is(err, ErrClosed) {
		t.Errorf("load after close: %v", err)
	}
	if _, err := k.ExecStringContext(ctx, "explain q(X)."); !errors.Is(err, ErrClosed) {
		t.Errorf("explain after close: %v", err)
	}
	if _, err := k.ExecStringContext(ctx, "describe q(X)."); !errors.Is(err, ErrClosed) {
		t.Errorf("describe after close: %v", err)
	}
	if _, err := k.CheckConstraintsContext(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("check after close: %v", err)
	}
}

// TestRetractDurable retracts a fact on a durable KB and confirms the
// tombstone survives a crash-style reopen (no checkpoint).
func TestRetractDurable(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString("p(a). p(b)."); err != nil {
		t.Fatal(err)
	}
	if removed, err := k.Retract(term.NewAtom("p", term.Sym("a"))); err != nil || !removed {
		t.Fatalf("retract: removed=%v err=%v", removed, err)
	}
	if removed, err := k.Retract(term.NewAtom("p", term.Sym("a"))); err != nil || removed {
		t.Fatalf("double retract: removed=%v err=%v", removed, err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	res, err := k2.ExecStringContext(context.Background(), "retrieve p(X).")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "p(b)" {
		t.Errorf("after reopen: %v, want only p(b)", got)
	}
}

// TestGenerationCounter pins the invalidation contract of prepared
// statements: loads and declaring asserts bump the generation;
// fact-only asserts do not.
func TestGenerationCounter(t *testing.T) {
	k := New()
	g0 := k.Generation()
	if err := k.LoadString("p(a)."); err != nil {
		t.Fatal(err)
	}
	g1 := k.Generation()
	if g1 == g0 {
		t.Error("load did not bump the generation")
	}
	if err := k.Assert(term.NewAtom("p", term.Sym("b"))); err != nil {
		t.Fatal(err)
	}
	if k.Generation() != g1 {
		t.Error("fact-only assert bumped the generation")
	}
	if err := k.Assert(term.NewAtom("fresh", term.Sym("x"))); err != nil {
		t.Fatal(err)
	}
	if k.Generation() == g1 {
		t.Error("declaring assert did not bump the generation")
	}
}

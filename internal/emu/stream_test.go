// Lifecycle tests for the pipelined streaming engine: whatever ends a
// stream — halt, a yield error, cancellation, a fault, a panic on either
// side — the emulator goroutine is joined before StreamTrace returns, and
// the chunks delivered and the Result/error returned are exactly those of
// the single-goroutine reference engine (StreamTraceSerial).
package emu_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"elag"
	"elag/internal/asm/asmtest"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/workload"
)

// countdown runs a 3-instruction loop 4000 times, then halts.
const countdown = "main:\tli r2, 4000\nL:\tsub r2, r2, 1\n\tbne r2, r0, L\n\thalt r2"

// faulting runs the countdown loop, then performs a misaligned load.
const faulting = "main:\tli r2, 4000\nL:\tsub r2, r2, 1\n\tbne r2, r0, L\n\tli r3, 4\n\tld8_n r1, r3(0)\n\thalt r1"

// spin never halts; only fuel ends it. Its memory footprint is one word.
const spin = "\t.data\nv:\t.word 0\n\t.text\nmain:\tld8_n r1, (v)\n\tadd r1, r1, 1\n\tst8 r1, (v)\n\tjmp main"

var errStop = errors.New("consumer stops")

// streamFunc is the signature shared by StreamTraceContext and the
// reference engine.
type streamFunc func(context.Context, *isa.Program, int64, int, func(*emu.Trace) error) (emu.Result, error)

// scenario is one way of ending a stream, applied by the consumer.
type scenario struct {
	name string
	// stopAt is the 1-based chunk whose yield returns errStop (0: never).
	stopAt int
	// cancelAt is the 1-based chunk whose yield cancels ctx (0: never).
	cancelAt int
}

// outcome is everything a stream's caller can observe: the deliveries
// (one line per chunk, with a hash of its columns) and the return values.
type outcome struct {
	chunks []string
	res    emu.Result
	err    error
}

func runScenario(stream streamFunc, prog *isa.Program, fuel int64, chunk int, sc scenario) outcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out outcome
	out.res, out.err = stream(ctx, prog, fuel, chunk, func(c *emu.Trace) error {
		var h uint64
		for i := 0; i < c.Len(); i++ {
			e := c.At(i)
			for _, v := range [...]int64{int64(e.PC), int64(e.NextPC), e.EA, e.BaseVal} {
				h = (h ^ uint64(v)) * 0x100000001b3
			}
			if e.Taken {
				h = (h ^ 1) * 0x100000001b3
			}
		}
		out.chunks = append(out.chunks, fmt.Sprintf("seq0=%d len=%d %x", c.Seq0, c.Len(), h))
		n := len(out.chunks)
		if n == sc.cancelAt {
			cancel()
		}
		if n == sc.stopAt {
			return errStop
		}
		return nil
	})
	return out
}

func compareOutcomes(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.chunks, want.chunks) {
		t.Errorf("%s: delivered %d chunks, reference %d; first: %v vs %v",
			what, len(got.chunks), len(want.chunks), head(got.chunks), head(want.chunks))
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: Result %+v, reference %+v", what, got.res, want.res)
	}
	if !reflect.DeepEqual(got.err, want.err) {
		t.Errorf("%s: error %v, reference %v", what, got.err, want.err)
	}
}

func head(s []string) []string {
	return s[:min(len(s), 2)]
}

// waitGoroutines fails the test unless the goroutine count returns to
// base. A joined emulator goroutine may still be between its last
// deferred call and its exit when the stream returns, so the count is
// polled; a goroutine the stream failed to join stays blocked forever.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the stream returned, %d before",
				what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestStreamLifecycle ends a stream every way it can end, checking that
// the emulator goroutine is gone afterwards and that each Result/error
// pair is the reference engine's.
func TestStreamLifecycle(t *testing.T) {
	progs := map[string]*isa.Program{
		"countdown": asmtest.MustAssemble(t, countdown),
		"faulting":  asmtest.MustAssemble(t, faulting),
		"spin":      asmtest.MustAssemble(t, spin),
	}
	for _, tc := range []struct {
		prog string
		fuel int64
		sc   scenario
		want error // expected error, matched with errors.Is
	}{
		{"countdown", 0, scenario{name: "completion"}, nil},
		{"countdown", 0, scenario{name: "yield error", stopAt: 3}, errStop},
		{"countdown", 0, scenario{name: "cancel mid-stream", cancelAt: 2}, context.Canceled},
		{"spin", 1000, scenario{name: "fuel fault"}, emu.ErrFuel},
		{"faulting", 0, scenario{name: "architectural fault"}, &isa.Fault{Kind: isa.FaultMisaligned}},
	} {
		base := runtime.NumGoroutine()
		prog := progs[tc.prog]
		got := runScenario(emu.StreamTraceContext, prog, tc.fuel, 64, tc.sc)
		waitGoroutines(t, tc.sc.name, base)
		if !errors.Is(got.err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.sc.name, got.err, tc.want)
		}
		if tc.sc.stopAt != 0 && got.err != errStop {
			t.Errorf("%s: yield's error not returned verbatim: %#v", tc.sc.name, got.err)
		}
		want := runScenario(emu.StreamTraceSerial, prog, tc.fuel, 64, tc.sc)
		compareOutcomes(t, tc.sc.name, got, want)
	}

	t.Run("yield panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		sentinel := &struct{ msg string }{"yield panics"}
		got := func() (v any) {
			defer func() { v = recover() }()
			emu.StreamTrace(progs["countdown"], 0, 64, func(c *emu.Trace) error {
				if c.Seq0 > 0 {
					panic(sentinel)
				}
				return nil
			})
			return nil
		}()
		if got != sentinel {
			t.Fatalf("recovered %v, want the yield's panic value", got)
		}
		waitGoroutines(t, "yield panic", base)
	})

	t.Run("emulator panic", func(t *testing.T) {
		// A nil program panics inside the emulator goroutine; the panic
		// must surface on this goroutine, with the value emu.New(nil)
		// panics with when called here directly.
		want := func() (v any) {
			defer func() { v = recover() }()
			emu.New(nil)
			return nil
		}()
		if _, ok := want.(runtime.Error); !ok {
			t.Fatalf("emu.New(nil) panicked with %v, want a runtime.Error", want)
		}
		base := runtime.NumGoroutine()
		got := func() (v any) {
			defer func() { v = recover() }()
			emu.StreamTrace(nil, 0, 64, func(*emu.Trace) error {
				t.Error("yield called for a nil program")
				return nil
			})
			return nil
		}()
		if _, ok := got.(runtime.Error); !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recovered %#v, want %#v", got, want)
		}
		waitGoroutines(t, "emulator panic", base)
	})
}

// TestStreamLifecycleMatchesSerial: on every workload, at an awkward and
// at the default chunk size, the pipelined engine delivers the reference
// engine's chunks and returns its Result/error pair — run to the end
// (a halt or the fuel fault), stopped by a yield error, and cancelled
// from inside yield. Workloads run in parallel, so several streams share
// the process at once under -race.
func TestStreamLifecycleMatchesSerial(t *testing.T) {
	fuel := int64(200_000)
	if testing.Short() {
		fuel = 50_000
	}
	scenarios := []scenario{
		{name: "run"},
		{name: "yield error", stopAt: 5},
		{name: "cancel", cancelAt: 3},
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, chunk := range []int{97, 4096} {
				for _, sc := range scenarios {
					what := fmt.Sprintf("chunk=%d %s", chunk, sc.name)
					got := runScenario(emu.StreamTraceContext, p.Machine, fuel, chunk, sc)
					want := runScenario(emu.StreamTraceSerial, p.Machine, fuel, chunk, sc)
					compareOutcomes(t, what, got, want)
				}
			}
		})
	}
}

// TestStreamAllocsIndependentOfLength: a steady-state streamed pass
// allocates nothing per chunk — a 1M-instruction stream allocates exactly
// as much as a 100k-instruction one. The buffers, channels and emulator
// goroutine are set up once per call.
func TestStreamAllocsIndependentOfLength(t *testing.T) {
	prog := asmtest.MustAssemble(t, spin)
	allocs := func(fuel int64) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := emu.StreamTrace(prog, fuel, 0, func(*emu.Trace) error { return nil })
			if !errors.Is(err, emu.ErrFuel) {
				t.Fatalf("fuel %d: %v", fuel, err)
			}
		})
	}
	short, long := allocs(100_000), allocs(1_000_000)
	if short != long {
		t.Fatalf("1M-instruction stream: %v allocations, 100k: %v", long, short)
	}
}

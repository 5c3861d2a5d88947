package emu

import (
	"context"

	"elag/internal/chaosinject"
	"elag/internal/isa"
)

// StreamTraceSerial is the single-goroutine streaming engine that
// StreamTraceContext pipelines: it emulates a chunk, delivers it, and only
// then emulates the next. It is kept as the reference the lifecycle tests
// compare the pipelined engine's deliveries and Result/error pairs with.
func StreamTraceSerial(ctx context.Context, prog *isa.Program, fuel int64, chunkSize int, yield func(*Trace) error) (Result, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if fuel <= 0 {
		fuel = 200_000_000
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ring := [2]*Trace{NewTrace(chunkSize), NewTrace(chunkSize)}
	cur := 0
	t := ring[0]
	c := New(prog)
	var te TraceEntry
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := chaosinject.SlowChunk(ctx); err != nil {
			return err
		}
		if t.Len() == 0 {
			return nil
		}
		seq := t.Seq0 + int64(t.Len())
		if err := yield(t); err != nil {
			return err
		}
		cur ^= 1
		t = ring[cur]
		t.reset(seq)
		return nil
	}
	for !c.Halted() {
		if c.res.DynamicInsts >= fuel {
			fault := &isa.Fault{Kind: isa.FaultFuel, PC: c.PC, SeqNum: c.res.DynamicInsts}
			if err := flush(); err != nil {
				return c.res, err
			}
			return c.res, fault
		}
		if err := c.Step(&te); err != nil {
			if ferr := flush(); ferr != nil {
				return c.res, ferr
			}
			return c.res, err
		}
		t.push(&te)
		if t.Len() == chunkSize {
			if err := flush(); err != nil {
				return c.res, err
			}
		}
	}
	return c.res, flush()
}

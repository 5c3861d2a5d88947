package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elag"
	"elag/internal/artifact"
	"elag/internal/serve"
	"elag/internal/telemetry"
	"elag/internal/workload"
)

// serve-mix: an in-process elag-serve (one worker per CPU, in-memory
// artifact store) on a loopback listener, driven by a closed loop of one
// client per CPU posting ?wait=1 jobs from the seeded job stream. A run
// posts a fixed number of jobs, ServeRate per second of window, and stops
// early only if the window ends first. The count is fixed because the
// server keeps every finished job, so its heap grows with jobs served: a
// faster server must not be charged more heap for serving more jobs.

// opHeader carries a traced job's op and root span ids to the server side,
// so the handler's span joins the client's op.
const opHeader = "X-Perfbench-Op"

type serveBench struct {
	o      *options
	stream []streamJob
	bodies [][]byte

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer]
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	posted     bool
	sent, done time.Time
	ms         float64
	status     int
	state      string
	result     json.RawMessage
	err        error
}

// setupServe generates the job stream and starts the server.
func setupServe(ctx context.Context, o *options) (bench, error) {
	n := int(o.Window.Seconds() * float64(o.Size.ServeRate))
	if n < 1 {
		n = 1
	}
	b := &serveBench{o: o, stream: jobStream(o.Seed, n, o.Size.ServeFuel), served: make(chan error, 1)}
	for i := range b.stream {
		body, err := b.stream[i].body()
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		return nil, err
	}
	b.srv = serve.New(serve.Options{Workers: runtime.NumCPU(), Cache: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Drain(time.Second)
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.traceHandler(b.srv.Handler())}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true}}
	resp, err := b.client.Get(b.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// close shuts the listener down, drains the server and waits for both.
func (b *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.srv.Drain(30 * time.Second)
	b.client.CloseIdleConnections()
	return err
}

// traceHandler wraps the server's handler in a serve.handler span when the
// request carries a traced op.
func (b *serveBench) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := b.tr.Load()
		var op, root int
		if _, err := fmt.Sscanf(r.Header.Get(opHeader), "%d,%d", &op, &root); tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin(op, root, "serve.handler")
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// post submits job i and waits for the reply.
func (b *serveBench) post(ctx context.Context, tr *tracer, i int) jobRecord {
	rec := jobRecord{posted: true}
	op, root := tr.op("job")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/jobs?wait=1", bytes.NewReader(b.bodies[i]))
	if err != nil {
		rec.err = err
		return rec
	}
	if tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op)+","+strconv.Itoa(root))
	}
	rec.sent = time.Now()
	resp, err := b.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.done = time.Now()
	tr.end(root)
	rec.ms = rec.done.Sub(rec.sent).Seconds() * 1e3
	if err != nil {
		rec.err = err
		return rec
	}
	var doc struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		rec.err = fmt.Errorf("decode reply: %w", err)
		return rec
	}
	rec.state, rec.result = doc.State, doc.Result
	return rec
}

func (b *serveBench) measure(ctx context.Context, d time.Duration, tr *tracer, hs *heapSampler) (*window, error) {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	recs := make([]jobRecord, len(b.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) || (i > 0 && time.Now().After(deadline)) || ctx.Err() != nil {
					return
				}
				recs[i] = b.post(ctx, tr, i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	w := &window{layers: map[string]float64{}}
	requested, executed := b.check(w, recs)
	prom, err := b.scrape(ctx)
	if err != nil {
		return nil, err
	}
	accepted := prom["elag_jobs_admitted_total"]
	hits, misses := prom["elag_result_cache_hits_total"], prom["elag_result_cache_misses_total"]
	coalesced := prom["elag_result_cache_coalesced_total"]
	w.attempted++
	if accepted != hits+misses+coalesced {
		w.fail("serve-mix: accepted %v != hits %v + misses %v + coalesced %v", accepted, hits, misses, coalesced)
	}
	w.opsPerSec = float64(len(w.opMS)) / elapsed
	w.minstPerSec = float64(requested) / elapsed / 1e6
	if p, ok := tailPercentile(len(w.opMS)); ok && p >= 95 {
		w.layers["serve.job_p95_ms"] = percentile(w.opMS, 95)
	}
	if tr == nil {
		return w, nil
	}

	w.tracedMS = median(w.opMS)
	byClass := map[string][]float64{}
	var hitMS []float64
	for i, r := range recs {
		if !r.posted {
			continue
		}
		j := b.stream[i]
		if j.Of != i && b.answeredBefore(recs, j.Of, r.sent) {
			hitMS = append(hitMS, r.ms)
			continue
		}
		byClass[j.Class] = append(byClass[j.Class], r.ms)
	}
	w.layers["serve.compile_p50_ms"] = median(byClass[classCompile])
	w.layers["serve.simulate_p50_ms"] = median(append(byClass[classSimulateSrc], byClass[classSimulateWL]...))
	w.layers["serve.hit_p50_ms"] = median(hitMS)
	w.layers["serve.queue_wait_ms"] = ratio(prom["elag_job_queue_wait_seconds_sum"], prom["elag_job_queue_wait_seconds_count"]) * 1e3
	w.layers["serve.hit_ratio"] = ratio(hits+coalesced, accepted)
	w.layers["pipeline.sim_insts"] = float64(executed)
	w.layers["pipeline.batch_width"] = ratio(float64(executed), prom["elag_insts_total"])
	for k, v := range prom {
		if strings.HasPrefix(k, "elag_jobs_rejected_total") {
			w.layers["serve.rejected"] += v
		}
	}
	w.layers["artifact.misses"] = prom["elag_artifact_misses_total"]
	w.layers["artifact.mem_bytes"] = prom[`elag_artifact_bytes{tier="mem"}`]
	w.layers["artifact.evictions"] = prom[`elag_artifact_evictions_total{tier="mem"}`]
	if err := b.split(ctx, tr); err != nil {
		return nil, err
	}
	return w, nil
}

// answeredBefore reports whether some job with the spec of job first got
// its reply before t: a repeat sent after that is answered from the cache.
func (b *serveBench) answeredBefore(recs []jobRecord, first int, t time.Time) bool {
	for i, r := range recs {
		if r.posted && b.stream[i].Of == first && r.err == nil && r.done.Before(t) {
			return true
		}
	}
	return false
}

// check records each posted job and applies the per-job checks: the reply
// is done, and every reply to one spec has the same bytes. It returns the
// simulated cell-instructions of the passing replies: requested counts
// every reply, cache hits and coalesced repeats included; executed counts
// each distinct spec once, as the server runs it once.
func (b *serveBench) check(w *window, recs []jobRecord) (requested, executed int64) {
	firstAnswer := map[int]json.RawMessage{}
	for i, r := range recs {
		if !r.posted {
			continue
		}
		w.attempted++
		switch {
		case r.err != nil:
			w.fail("serve-mix job %d: %v", i, r.err)
			continue
		case r.status != http.StatusOK || r.state != "done":
			w.fail("serve-mix job %d: HTTP %d, state %q", i, r.status, r.state)
			continue
		}
		n, err := resultInsts(&b.stream[i].Spec, r.result)
		if err != nil {
			w.fail("serve-mix job %d: %v", i, err)
			continue
		}
		of := b.stream[i].Of
		if prev, ok := firstAnswer[of]; !ok {
			firstAnswer[of] = r.result
			executed += n
		} else if !bytes.Equal(prev, r.result) {
			w.fail("serve-mix job %d: reply differs from the first answer to job %d's spec", i, of)
			continue
		}
		requested += n
		w.opMS = append(w.opMS, r.ms)
	}
	return requested, executed
}

// resultInsts is the simulated cell-instructions of a reply: the retired
// instructions of each of its configurations, summed. A compile job has
// none.
func resultInsts(spec *serve.JobSpec, result json.RawMessage) (int64, error) {
	if spec.Kind != "simulate" {
		return 0, nil
	}
	var res struct {
		Metrics []struct {
			Metrics struct{ Insts int64 } `json:"metrics"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(result, &res); err != nil {
		return 0, fmt.Errorf("decode result: %w", err)
	}
	if len(res.Metrics) != len(spec.Configs) {
		return 0, fmt.Errorf("result has %d metrics documents for %d configs", len(res.Metrics), len(spec.Configs))
	}
	var n int64
	for _, m := range res.Metrics {
		n += m.Metrics.Insts
	}
	return n, nil
}

// scrape reads /metrics through the server's handler.
func (b *serveBench) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	return telemetry.ParseProm(resp.Body)
}

// split times, on the inputs of the first distinct jobs of the stream, the
// layers a job runs inside the server: elag.Build for compile jobs, and
// elag.Build plus a streamed pass for simulate jobs. Each is an op of its
// own, outside any job.
func (b *serveBench) split(ctx context.Context, tr *tracer) error {
	done := 0
	for i := range b.stream {
		j := &b.stream[i]
		if j.Of != i {
			continue
		}
		if done++; done > b.o.Size.ServeSplit {
			break
		}
		op, root := tr.op("serve.split")
		err := splitJob(ctx, tr, op, root, &j.Spec)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("split job %d: %w", i, err)
		}
	}
	return nil
}

func splitJob(ctx context.Context, tr *tracer, op, root int, spec *serve.JobSpec) error {
	src := spec.Source
	if spec.Workload != "" {
		src = workload.Get(spec.Workload).Source
	}
	opts := elag.BuildOptions{}
	if spec.Opt != "" {
		lvl, err := elag.ParseOptLevel(spec.Opt)
		if err != nil {
			return err
		}
		opts.Level = lvl
	}
	id := tr.begin(op, root, "passman.build")
	p, err := elag.Build(src, opts)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.count("passman.insts", int64(len(p.Machine.Insts)))
	if spec.Kind != "simulate" {
		return nil
	}
	var cells []cell
	for _, c := range spec.Configs {
		cfg, err := c.Config()
		if err != nil {
			return err
		}
		layer := strings.ReplaceAll(c.Name, "-", "_")
		if c.Mech != "" {
			layer = "assist"
		}
		cells = append(cells, cell{layer, elag.BatchSpec{Config: cfg}})
	}
	_, _, err = streamPass(ctx, tr, op, root, p.Machine, spec.Fuel, cells)
	return err
}

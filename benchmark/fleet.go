package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"neo/internal/cluster"
	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

// sizing holds everything that differs between the real benchmark and the
// 1/20-scale smoke test. The daemon-facing values of full are the
// neo-serve / neo-trainer flag defaults.
type sizing struct {
	scale      float64
	expansions int
	bootstrap  int                 // trainer cold-start workload (-queries)
	valueNet   *neo.ValueNetConfig // nil = the daemons' default network
	encoding   neo.Encoding

	hotPool   int     // serve-hot: distinct specs
	hotWarmup int     // serve-hot: count-based warm-up requests
	hotRate   float64 // serve-hot: open-loop arrivals per second
	missRate  float64 // serve-miss: open-loop arrivals per second
	// serve-miss: completions per second of one client and of both on the
	// reference box, from which the fixed request counts are sized
	missLatRate, missClosedRate float64

	verifyN    int // serve-*: specs re-planned and executed after the run
	tracedHot  int // serve-hot: traced requests of a reference-length traced run
	tracedMiss int // serve-miss: likewise
	loopSpecs  int // learn-loop: training specs per round (= trainer RetrainEvery)
	loopRounds int // learn-loop: minimum rounds
	// learn-loop: what one round (every spec once, forward, retrain, swap)
	// takes on the reference box; the round count is -seconds over this, so a
	// run does a fixed amount of work
	secPerRound float64
	trainN      int     // train-episodes: training queries
	heldOutN    int     // train-episodes: held-out queries
	secPerEp    float64 // train-episodes: -seconds per refinement episode
}

var full = sizing{
	scale: 0.4, expansions: 256, bootstrap: 16, encoding: neo.RVector,
	hotPool: 64, hotWarmup: 2000, hotRate: 1000, missRate: 4, missLatRate: 15, missClosedRate: 12.5, verifyN: 32, tracedHot: 2000, tracedMiss: 100,
	loopSpecs: 64, loopRounds: 3, secPerRound: 2.75,
	trainN: 25, heldOutN: 10, secPerEp: 1.9,
}

// tiny is the smoke test's system: same code paths, a database and network
// small enough that every workload finishes in about a second.
var tiny = sizing{
	scale: 0.15, expansions: 24, bootstrap: 6, encoding: neo.OneHot, // no embedding to train
	valueNet: &neo.ValueNetConfig{
		QueryLayers: []int{16, 8}, TreeChannels: []int{8, 8}, HeadLayers: []int{8},
		LearningRate: 2e-3, UseLayerNorm: true, Seed: 3,
	},
	hotPool: 24, hotWarmup: 100, hotRate: 400, missRate: 40, missLatRate: 100, missClosedRate: 100, verifyN: 8, tracedHot: 4000, tracedMiss: 240,
	loopSpecs: 16, loopRounds: 2, secPerRound: 0.5,
	trainN: 10, heldOutN: 5, secPerEp: 0.4,
}

const (
	daemonSeed = 42 // the daemons' -seed default; workload inputs come from -seed, never this
	clients    = 2  // client goroutines = keep-alive connections (nproc of the reference box)
)

// replicaConfig is neo-serve's flag defaults plus -routing auto, the only
// setting under which cache-hit, fast-path and full-search requests all
// exist.
func replicaConfig(sz sizing, engine, dataDir string) neo.Config {
	return neo.Config{
		Dataset: "imdb", Engine: engine, DataDir: dataDir, Encoding: sz.encoding,
		Scale: sz.scale, Seed: daemonSeed, SearchExpansions: sz.expansions,
		FuseScoring: true, ScorePrecision: "float32", Routing: "auto",
		ValueNet: sz.valueNet,
	}
}

// trainerConfig is neo-trainer's flag defaults (float64, no fusion, full
// routing: the trainer never serves plans).
func trainerConfig(sz sizing, engine, dataDir string) neo.Config {
	return neo.Config{
		Dataset: "imdb", Engine: engine, DataDir: dataDir, Encoding: sz.encoding,
		Scale: sz.scale, Seed: daemonSeed, SearchExpansions: sz.expansions,
		ValueNet: sz.valueNet,
	}
}

type replica struct {
	sys *neo.System
	srv *serve.Server
	ts  *httptest.Server
}

// fleet is one trainer and two replicas on loopback listeners, driven
// through pkg/neo.Client — the deployment OPERATIONS.md describes, in one
// process so the harness can also reach each System directly.
type fleet struct {
	sz       sizing
	engine   string
	tsys     *neo.System
	trainer  *cluster.Trainer
	tts      *httptest.Server
	replicas []*replica
	byURL    map[string]*replica
	client   *neo.Client
	httpc    *http.Client
	dataRoot string // parent of the disk engine's heap-file directories ("" for simulated engines)
}

type ctxKey int

const (
	ctxReq  ctxKey = iota // request id, carried to the handler wrapper in a header
	ctxSpan               // id of the client span that caused the request
)

const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tagTransport copies the request and client-span ids from the context into
// headers, so the handler wrapper on the other side of the loopback can
// parent its span. Only the traced run installs it.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(ctxReq).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.Itoa(id))
		if sp, ok := r.Context().Value(ctxSpan).(int); ok {
			r.Header.Set(hdrSpan, strconv.Itoa(sp))
		}
	}
	return t.base.RoundTrip(r)
}

// spanHandler times each request of the wrapped daemon from outside and
// records it under names[path]; other paths pass through untimed. Client
// requests (tagged names) are timed only when they carry a request tag, so
// untagged traffic through the same handler stays untraced and the two can
// be compared.
func spanHandler(tr *tracer, names map[string]spanName, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := names[r.URL.Path]
		if !ok || !tr.on() || (name.tagged && r.Header.Get(hdrReq) == "") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		req, _ := strconv.Atoi(r.Header.Get(hdrReq))
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		tr.add(name.name, parent, req, start, end)
	})
}

type spanName struct {
	name   string
	tagged bool // sent by the harness's client, which tags what it traces
}

var (
	replicaSpans = map[string]spanName{"/optimize": {"serve.optimize", true}, "/feedback": {"serve.feedback", true}, "/admin/snapshot": {"serve.swap", false}}
	trainerSpans = map[string]spanName{"/experience": {"trainer.experience", false}, "/snapshot": {"trainer.snapshot", false}}
)

// newFleet opens, bootstraps and connects the fleet. With a tracer, every
// daemon is mounted behind spanHandler and the client tags its requests;
// without one the daemons are mounted bare. dataRoot is used by the disk
// engine only.
func newFleet(sz sizing, engine, dataRoot string, tr *tracer) (*fleet, error) {
	f := &fleet{sz: sz, engine: engine, byURL: make(map[string]*replica)}
	if engine == "disk" {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(dataRoot, "heap-")
		if err != nil {
			return nil, err
		}
		f.dataRoot = dir
	}
	dataDir := func(name string) string {
		if f.dataRoot == "" {
			return ""
		}
		return filepath.Join(f.dataRoot, name)
	}
	mount := func(h http.Handler, names map[string]spanName) *httptest.Server {
		if tr != nil {
			h = spanHandler(tr, names, h)
		}
		return httptest.NewServer(h)
	}

	var err error
	if f.tsys, err = neo.Open(trainerConfig(sz, engine, dataDir("trainer"))); err != nil {
		return f, err
	}
	wl, err := f.tsys.GenerateWorkload(sz.bootstrap)
	if err != nil {
		return f, err
	}
	if err := f.tsys.Bootstrap(wl.Queries); err != nil {
		return f, err
	}
	if f.trainer, err = cluster.NewTrainer(f.tsys, cluster.TrainerConfig{RetrainEvery: sz.loopSpecs}); err != nil {
		return f, err
	}
	f.trainer.Start()
	f.tts = mount(f.trainer, trainerSpans)

	var urls []string
	for i := 0; i < 2; i++ {
		r, err := f.openReplica(dataDir(fmt.Sprintf("replica%d", i)))
		if err != nil {
			return f, err
		}
		r.srv.Start()
		r.ts = mount(r.srv, replicaSpans)
		f.replicas = append(f.replicas, r)
		f.byURL[r.ts.URL] = r
		urls = append(urls, r.ts.URL)
	}

	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: clients}
	if tr != nil {
		rt = tagTransport{rt}
	}
	f.httpc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	f.client, err = neo.NewClient(neo.ClientConfig{Replicas: urls, RPC: proto.Client{HTTP: f.httpc, Attempts: 1}})
	return f, err
}

// openReplica opens one replica system and joins it to the fleet at the
// trainer's published snapshot; the caller starts and mounts it — or, for the
// cold-cache twin the traced run decomposes requests on, does neither.
func (f *fleet) openReplica(dataDir string) (*replica, error) {
	sys, err := neo.Open(replicaConfig(f.sz, f.engine, dataDir))
	if err != nil {
		return nil, err
	}
	srv := serve.New(sys, serve.Config{Replica: &serve.ReplicaConfig{TrainerURL: f.tts.URL}})
	if _, err := srv.SyncSnapshot(context.Background(), 0); err != nil {
		return nil, err
	}
	return &replica{sys: sys, srv: srv}, nil
}

// owner returns the replica the client routes spec to.
func (f *fleet) owner(spec *neo.QuerySpec) *replica { return f.byURL[f.client.Route(spec)] }

// close stops every daemon and listener and removes the heap files.
func (f *fleet) close() {
	if f.httpc != nil {
		f.httpc.CloseIdleConnections()
	}
	for _, r := range f.replicas {
		closeReplica(r)
	}
	if f.tts != nil {
		f.tts.Close()
	}
	if f.trainer != nil {
		_ = f.trainer.Close() // no checkpoint path is configured, so there is nothing to fail
	}
	if f.tsys != nil {
		_ = f.tsys.Close()
	}
	if f.dataRoot != "" {
		_ = os.RemoveAll(f.dataRoot)
	}
}

func closeReplica(r *replica) {
	if r.ts != nil {
		r.ts.Close()
	}
	_ = r.srv.Close()
	_ = r.sys.Close()
}

// Command hta-server runs the crowdsourcing assignment platform (the
// workflow of Figure 4) as an HTTP service. Tasks can be preloaded from a
// JSON-lines file produced by hta-gen, or uploaded at runtime via
// POST /api/tasks. Both go through the platform's one task intake
// (platform.Server.AddTasks), so in every mode a preload is replicated,
// quality-checked and offered exactly like an upload; a preloaded task's
// deadline is an offset from load time, as hta-gen -deadlines writes it,
// where an uploaded one is an absolute instant. With -snapshot the
// full engine state (task pool, in-flight assignments, learned α/β) is
// restored at startup and saved on SIGINT/SIGTERM, so the experiment
// survives restarts.
//
// Cluster mode stacks a thin RPC plane on the sharded engine. A process
// started with -node NAME (implies -shards >= 1) additionally serves the
// cluster protocol under /cluster/ — batched op frames, health probes,
// and per-node snapshot cuts. A process started with -gateway -peers
// name=url,... runs no local engine: it routes every streaming op across
// the named nodes by consistent hashing, scatter-gathers marginal-gain
// scores for task placement, and re-partitions the ring when heartbeats
// declare a node dead; its -snapshot is the cluster's cut, one engine
// document that -shards N -snapshot restores. The public HTTP surface is
// identical in all three modes; only the backend behind it changes.
//
// The server is hardened for unattended operation: read/write/idle
// timeouts on every connection, bounded request bodies, and a graceful
// shutdown path — on SIGINT/SIGTERM the /healthz endpoint flips to 503
// (so load balancers drain), in-flight requests finish within
// -shutdown-grace, and only then is the snapshot written.
//
// With -shards N (N >= 1) the service runs the sharded streaming engine
// instead of batch iterations: workers are partitioned across N shards,
// each behind its own lock, by consistent hashing, and every request runs
// its shard calls in its own goroutine. Uploaded tasks are routed to the
// worker with the best marginal motivation gain across all shards (or
// buffered), and completions immediately pull buffered work. The HTTP
// surface is unchanged; /api/stats reports the engine-wide conservation
// accounting.
// Snapshots in this mode are the consistent merge of per-shard snapshots
// and can be restored at a different -shards count.
//
// Usage:
//
//	hta-server [-addr :8080] [-tasks tasks.jsonl] [-snapshot state.json]
//	           [-shards 0] [-buffer 1024]
//	           [-deadline-aware] [-urgency-horizon 30s] [-expire-interval 1s]
//	           [-predictive] [-forecast-horizon 3] [-learn-windows]
//	           [-health-window 5m]
//	           [-node name] [-gateway] [-peers n1=http://h1,n2=http://h2]
//	           [-redundancy 0] [-gold-rate 0.2] [-gold gold.jsonl]
//	           [-agg weighted] [-quarantine-floor 0.4]
//	           [-xmax 15] [-extra 5] [-universe 100]
//	           [-read-timeout 10s] [-write-timeout 30s] [-shutdown-grace 15s]
//	           [-max-body 8388608]
//	           [-log-level info] [-log-format text]
//	           [-trace-sample 1] [-trace-capacity 256]
//
// Every request opens a root trace span (1 in -trace-sample requests;
// 0 disables tracing) that propagates through the adaptive engine into
// the solver phases; sampled responses carry an X-Trace-Id header, and
// the retained traces are served at GET /debug/trace — as Chrome
// trace-event JSON by default (load the file in Perfetto), or as a text
// tree with ?format=tree. Logs are structured (log/slog) and
// trace-correlated: lines emitted while serving a sampled request carry
// its trace_id/span_id.
//
// With -redundancy k (streaming modes only) the quality layer is active:
// every uploaded task is replicated into k engine tasks so it collects k
// answers before it is resolved; a -gold-rate fraction of tasks (plus any
// explicit -gold answer-key file from hta-gen) are graded against known
// answers, driving per-worker accuracy estimates that multiply into the
// assignment objective and quarantine workers below -quarantine-floor.
// Answers are submitted via POST /api/answers and aggregated by -agg
// (majority, weighted or em). With -snapshot the tracker's state is
// persisted beside the engine snapshot (at <path>.quality) and restored
// with it, so reputation survives restarts.
//
// Endpoints:
//
//	POST   /api/tasks                 {"tasks": [{"id","group","reward","keywords"}]}
//	POST   /api/workers               {"id": "...", "keywords": [>=6 ints]}
//	GET    /api/workers/{id}/tasks
//	POST   /api/workers/{id}/complete {"task_id": "..."}
//	DELETE /api/workers/{id}
//	POST   /api/answers               {"worker","task_id","option"} (with -redundancy)
//	GET    /api/answers               aggregated consensus + conservation stats
//	GET    /api/workers/{id}/reputation
//	GET    /api/stats
//	GET    /api/events                ops event journal (gateway: merged across nodes; ?local=1)
//	GET    /metrics                   Prometheus text (gateway: federated with per-node labels; ?local=1)
//	GET    /healthz                   200 ok / 503 draining (?verbose=1 for the journal health score)
//	GET    /debug/trace?n=K           last K retained traces (&format=tree for text; gateway: &cluster=1 stitches all nodes)
//	GET    /debug/pprof/              net/http/pprof profiling suite
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/workload"
)

// serverParams are the hardening knobs of the HTTP listener.
type serverParams struct {
	readTimeout   time.Duration
	writeTimeout  time.Duration
	idleTimeout   time.Duration
	shutdownGrace time.Duration
}

// newHTTPServer wires the hardened listener: header/body read deadlines,
// write deadlines, idle connection reaping. Extracted from main so the
// integration tests exercise the same configuration curl hits.
func newHTTPServer(addr string, h http.Handler, p serverParams) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: p.readTimeout,
		ReadTimeout:       p.readTimeout,
		WriteTimeout:      p.writeTimeout,
		IdleTimeout:       p.idleTimeout,
	}
}

// shutdownGracefully drains the server: flip /healthz to 503, stop
// accepting connections, wait up to grace for in-flight assignments to
// finish. Returns the Shutdown error (context.DeadlineExceeded when the
// grace period expired with requests still running).
func shutdownGracefully(httpSrv *http.Server, srv *platform.Server, grace time.Duration) error {
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	tasksPath := flag.String("tasks", "", "optional JSON-lines task file to preload (see hta-gen); a task's deadline is an offset from load time")
	snapshotPath := flag.String("snapshot", "", "engine state file: restored at startup, written on SIGINT/SIGTERM")
	shards := flag.Int("shards", 0, "run the sharded streaming engine with N shards instead of batch iterations (0 = batch)")
	buffer := flag.Int("buffer", 1024, "per-shard task buffer limit (sharded mode only)")
	redundancy := flag.Int("redundancy", 0, "collect this many answers per task before resolving it (0 disables the quality layer; streaming modes only)")
	goldRate := flag.Float64("gold-rate", 0.2, "fraction of tasks auto-marked gold for online grading (with -redundancy)")
	goldFile := flag.String("gold", "", "optional gold answer-key file from hta-gen -gold-out (with -redundancy)")
	aggMethod := flag.String("agg", "weighted", "answer aggregation method: majority, weighted or em (with -redundancy)")
	quarantineFloor := flag.Float64("quarantine-floor", 0.4, "quarantine workers whose gold accuracy drops below this (with -redundancy; 0 disables)")
	deadlineAware := flag.Bool("deadline-aware", false, "order buffered work by deadline urgency and route deadlined tasks away from departing workers (sharded mode only)")
	urgencyHorizon := flag.Duration("urgency-horizon", 30*time.Second, "a deadline within this horizon makes a task urgent (with -deadline-aware)")
	expireInterval := flag.Duration("expire-interval", time.Second, "period of the deadline-expiry sweep over shard buffers (with -deadline-aware; 0 disables)")
	predictive := flag.Bool("predictive", false, "rebalance shards on forecast demand (EWMA arrival/completion rates) instead of current backlog only (sharded mode only)")
	forecastHorizon := flag.Float64("forecast-horizon", 3, "steal rounds of lookahead in the backlog projection (with -predictive)")
	learnWindows := flag.Bool("learn-windows", false, "learn per-worker availability windows from observed session lengths (sharded mode only)")
	healthWindow := flag.Duration("health-window", ops.DefaultHealthWindow, "scoring window of GET /healthz?verbose=1 over the ops journal")
	nodeName := flag.String("node", "", "cluster member name: also serve the cluster RPC plane under /cluster/ (requires -shards >= 1)")
	gatewayMode := flag.Bool("gateway", false, "run as the cluster gateway: no local engine, ops routed across -peers")
	peersSpec := flag.String("peers", "", "cluster membership as name=url,name=url (gateway mode only)")
	xmax := flag.Int("xmax", 15, "per-worker capacity Xmax (paper live setting: 15)")
	extra := flag.Int("extra", 5, "extra random tasks per display set (paper: 5)")
	universe := flag.Int("universe", 100, "keyword universe size")
	seed := flag.Int64("seed", time.Now().UnixNano(), "random seed for the solver and extras")
	perWorker := flag.Int("reassign-per-worker", 10, "completions per worker that trigger a new iteration")
	total := flag.Int("reassign-total", 25, "total completions that trigger a new iteration")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "per-connection read deadline")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "per-connection write deadline")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle deadline")
	grace := flag.Duration("shutdown-grace", 15*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	maxBody := flag.Int64("max-body", 8<<20, "request body limit in bytes (<0 disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	traceSample := flag.Int("trace-sample", 1, "trace 1 in N requests (0 disables tracing)")
	traceCap := flag.Int("trace-capacity", 256, "traces retained for GET /debug/trace")
	flag.Parse()

	logger, err := trace.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatalf("hta-server: %v", err)
	}
	tracer := trace.NewRecorder(*traceCap, *traceSample)

	srvCfg := platform.ServerConfig{
		Universe:          *universe,
		ReassignPerWorker: *perWorker,
		ReassignTotal:     *total,
		MaxBodyBytes:      *maxBody,
		Tracer:            tracer,
		Logger:            logger,
		Health:            ops.HealthConfig{Window: *healthWindow},
	}
	var preload []*core.Task // offered once the server is built
	if *tasksPath != "" {
		f, err := os.Open(*tasksPath)
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		preload, err = workload.ReadTasks(f)
		f.Close()
		if err != nil {
			log.Fatalf("hta-server: reading %s: %v", *tasksPath, err)
		}
		// A task file's deadlines are offsets from trace start
		// (workload.Deadlines); the load instant is that start.
		now := time.Now().UnixNano()
		for _, t := range preload {
			if t.Deadline != 0 {
				t.Deadline += now
			}
		}
	}
	var qtracker *quality.Tracker
	if *redundancy > 0 {
		if *shards <= 0 && !*gatewayMode {
			log.Fatal("hta-server: -redundancy requires a streaming backend (-shards >= 1 or -gateway)")
		}
		method, err := quality.ParseMethod(*aggMethod)
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		qcfg := quality.Config{
			K:               *redundancy,
			GoldRate:        *goldRate,
			GoldSalt:        uint64(*seed),
			Method:          method,
			QuarantineFloor: *quarantineFloor,
		}
		var restoredQ bool
		qtracker, restoredQ, err = openOrFresh(qualitySnapshotPath(*snapshotPath),
			func() (*quality.Tracker, error) { return quality.New(qcfg) },
			func(r io.Reader) (*quality.Tracker, error) { return quality.Restore(r, qcfg) })
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		if restoredQ {
			st := qtracker.Stats()
			fmt.Printf("restored quality tracker state from %s (%d answers, %d resolved, %d workers)\n",
				qualitySnapshotPath(*snapshotPath), st.AnswersSubmitted, st.TasksResolved, st.Workers)
		}
		if *goldFile != "" {
			f, err := os.Open(*goldFile)
			if err != nil {
				log.Fatalf("hta-server: %v", err)
			}
			gold, err := workload.ReadGold(f)
			f.Close()
			if err != nil {
				log.Fatalf("hta-server: reading %s: %v", *goldFile, err)
			}
			for _, g := range gold {
				if err := qtracker.AddGold(g.TaskID, g.Answer); err != nil {
					log.Fatalf("hta-server: gold task %s: %v", g.TaskID, err)
				}
			}
			fmt.Printf("loaded %d gold answers from %s\n", len(gold), *goldFile)
		}
		srvCfg.Quality = qtracker
		srvCfg.Redundancy = *redundancy
	}
	var clusterNode *cluster.Node
	if *gatewayMode {
		if *shards > 0 || *nodeName != "" {
			log.Fatal("hta-server: -gateway excludes -shards and -node (the gateway runs no local engine)")
		}
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		ops.SetDefaultNode("gateway")
		gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: peers, Logger: logger, Tracer: tracer})
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		defer gw.Close()
		// In gateway mode -snapshot writes the cluster's cut at shutdown,
		// one engine document that -shards N -snapshot restores into a
		// single process; the gateway restores nothing at startup.
		srvCfg.Shards = gw
	} else if *shards > 0 {
		scfg := shard.Config{
			Shards: *shards,
			Stream: stream.Config{
				Xmax: *xmax, BufferLimit: *buffer, WithTrust: qtracker != nil,
				DeadlineAware:  *deadlineAware,
				UrgencyHorizon: urgencyHorizon.Nanoseconds(),
			},
			Predictive:      *predictive,
			ForecastHorizon: *forecastHorizon,
			LearnWindows:    *learnWindows,
			Tracer:          tracer,
		}
		if *deadlineAware {
			scfg.ExpireInterval = *expireInterval
		}
		// The snapshot's shard count need not match -shards: workers are
		// re-partitioned by the ring.
		eng, restored, err := openOrFresh(*snapshotPath,
			func() (*shard.Engine, error) { return shard.New(scfg) },
			func(r io.Reader) (*shard.Engine, error) { return shard.Restore(r, scfg) })
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		defer eng.Close()
		if restored {
			st := eng.Stats()
			fmt.Printf("restored sharded engine state from %s (%d shards, %d workers, %d buffered)\n",
				*snapshotPath, st.Shards, st.Workers, st.Buffered)
		}
		if *nodeName != "" {
			ops.SetDefaultNode(*nodeName)
			clusterNode, err = cluster.NewNode(cluster.NodeConfig{Name: *nodeName, Engine: eng, Tracer: tracer})
			if err != nil {
				log.Fatalf("hta-server: %v", err)
			}
		}
		srvCfg.Shards = eng
	} else if *nodeName != "" {
		log.Fatal("hta-server: -node requires -shards >= 1 (the cluster plane serves the streaming engine)")
	} else {
		cfg := adaptive.Config{
			Xmax:             *xmax,
			ExtraRandomTasks: *extra,
			Rand:             rand.New(rand.NewSource(*seed)),
			Logger:           logger,
		}
		engine, restored, err := openOrFresh(*snapshotPath,
			func() (*adaptive.Engine, error) { return adaptive.NewEngine(cfg) },
			func(r io.Reader) (*adaptive.Engine, error) { return adaptive.Restore(r, cfg) })
		if err != nil {
			log.Fatalf("hta-server: %v", err)
		}
		if restored {
			fmt.Printf("restored engine state from %s (iteration %d, %d pooled tasks)\n",
				*snapshotPath, engine.Iteration(), engine.PoolSize())
		}
		srvCfg.Engine = engine
	}
	srv, err := platform.NewServer(srvCfg)
	if err != nil {
		log.Fatalf("hta-server: %v", err)
	}
	if len(preload) > 0 {
		res, err := srv.AddTasks(context.Background(), preload)
		if err != nil {
			log.Fatalf("hta-server: loading tasks: %v", err)
		}
		body, _ := json.Marshal(res) // a map or a struct of ints: cannot fail
		fmt.Printf("loaded %d tasks from %s: %s\n", len(preload), *tasksPath, body)
	}

	// -node mode mounts the cluster RPC plane beside the public API: one
	// listener serves both the worker-facing endpoints and the gateway's
	// batched frames.
	var handler http.Handler = srv
	if clusterNode != nil {
		outer := http.NewServeMux()
		outer.Handle("/cluster/", clusterNode)
		outer.Handle("/", srv)
		handler = outer
	}
	httpSrv := newHTTPServer(*addr, handler, serverParams{
		readTimeout:   *readTimeout,
		writeTimeout:  *writeTimeout,
		idleTimeout:   *idleTimeout,
		shutdownGrace: *grace,
	})

	// Explicit listen before serve so -addr :0 reports the kernel-chosen
	// port — the cluster smoke tests spawn nodes on ephemeral ports and
	// scrape this line for the address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hta-server: %v", err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	bound := ln.Addr().String()
	switch {
	case *gatewayMode:
		fmt.Printf("assignment service listening on %s (cluster gateway, %d peers)\n",
			bound, len(strings.Split(*peersSpec, ",")))
	case clusterNode != nil:
		fmt.Printf("assignment service listening on %s (cluster node %q, %d shards, Xmax=%d, buffer=%d/shard)\n",
			bound, *nodeName, *shards, *xmax, *buffer)
	case *shards > 0:
		fmt.Printf("assignment service listening on %s (streaming, %d shards, Xmax=%d, buffer=%d/shard)\n",
			bound, *shards, *xmax, *buffer)
	default:
		fmt.Printf("assignment service listening on %s (Xmax=%d, +%d random)\n", bound, *xmax, *extra)
	}
	if qtracker != nil {
		fmt.Printf("quality layer active: redundancy=%d, agg=%s, gold-rate=%.2f, quarantine-floor=%.2f\n",
			*redundancy, qtracker.Method(), *goldRate, *quarantineFloor)
	}
	if *shards > 0 && (*deadlineAware || *predictive || *learnWindows) {
		fmt.Printf("predictive scheduling: deadline-aware=%v (urgency=%s, expiry=%s), predictive=%v (horizon=%.1f), learn-windows=%v\n",
			*deadlineAware, *urgencyHorizon, *expireInterval, *predictive, *forecastHorizon, *learnWindows)
	}
	select {
	case err := <-errCh:
		log.Fatalf("hta-server: %v", err)
	case sig := <-sigs:
		fmt.Printf("\n%s: draining (grace %s)\n", sig, *grace)
		if err := shutdownGracefully(httpSrv, srv, *grace); err != nil {
			log.Printf("hta-server: shutdown: %v", err)
		}
		if *snapshotPath != "" {
			if err := writeAtomic(*snapshotPath, srv.Snapshot); err != nil {
				log.Fatalf("hta-server: snapshot: %v", err)
			}
			fmt.Printf("saved engine state to %s\n", *snapshotPath)
			if qtracker != nil {
				qpath := qualitySnapshotPath(*snapshotPath)
				if err := writeAtomic(qpath, qtracker.Snapshot); err != nil {
					log.Fatalf("hta-server: quality snapshot: %v", err)
				}
				fmt.Printf("saved quality tracker state to %s\n", qpath)
			}
		}
	}
}

// parsePeers turns the -peers flag ("n1=http://h1:p1,n2=http://h2:p2")
// into the gateway's membership list.
func parsePeers(spec string) ([]cluster.PeerSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("-gateway requires -peers name=url,name=url")
	}
	var peers []cluster.PeerSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q, want name=url", part)
		}
		peers = append(peers, cluster.PeerSpec{Name: name, URL: url})
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers named no nodes")
	}
	return peers, nil
}

// qualitySnapshotPath derives the tracker's state file from the engine
// snapshot path ("" stays "", so no-snapshot runs skip persistence).
func qualitySnapshotPath(snapshotPath string) string {
	if snapshotPath == "" {
		return ""
	}
	return snapshotPath + ".quality"
}

// openOrFresh restores a T from the snapshot at path when one exists,
// otherwise builds a fresh one; the bool reports a restore. An empty path
// always starts fresh.
func openOrFresh[T any](path string, fresh func() (T, error), restore func(io.Reader) (T, error)) (T, bool, error) {
	var zero T
	if path == "" {
		v, err := fresh()
		return v, false, err
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		v, err := fresh()
		return v, false, err
	}
	if err != nil {
		return zero, false, err
	}
	defer f.Close()
	v, err := restore(f)
	if err != nil {
		return zero, false, fmt.Errorf("restoring %s: %w", path, err)
	}
	return v, true, nil
}

// writeAtomic writes a snapshot through a temp file renamed over path, so
// a failed write leaves the previous file in place. srv.Snapshot takes
// the engine's consistent cut itself.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

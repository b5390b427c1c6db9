package bench

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

func (s *server) stop() {
	_ = s.srv.Close() // closes the listener and every connection; nothing to drain
	<-s.done
}

// stack is one running serving deployment, started from the product's
// public constructors, plus one platform.Client per client goroutine.
type stack struct {
	plat    *server           // the platform's listener
	nodeSrv []*server         // Cluster: the nodes' listeners
	eng     *shard.Engine     // Stream: the engine behind the platform
	nodes   []*shard.Engine   // Cluster: each node's engine
	gw      *cluster.Gateway  // Cluster only
	rpcTr   *http.Transport   // Cluster: the gateway's RPC transport
	targets []*httpTarget     // one per client
	trs     []*http.Transport // one per client
	stamps  []*atomic.Uint64  // one per client, read by stampTransport
}

// startStack builds the workload's stack with the product's own tracing,
// heartbeat, wall-clock stealing and optional layers off. With rec, the
// bench's span wrappers sit at every layer boundary; wrap, when set,
// wraps the backend handed to the platform (tests inject faults with it).
func startStack(sh *Shape, rec *recorder, wrap func(platform.StreamBackend) platform.StreamBackend) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var backend platform.StreamBackend
	switch sh.Kind {
	case Stream:
		st.eng, err = newEngine(sh, sh.Shards, sh.BufferLimit)
		if err != nil {
			return st, err
		}
		backend = st.eng
	case Cluster:
		peers := make([]cluster.PeerSpec, sh.Nodes)
		for i := range peers {
			eng, err := newEngine(sh, sh.Shards, sh.BufferLimit)
			if err != nil {
				return st, err
			}
			st.nodes = append(st.nodes, eng)
			name := fmt.Sprintf("n%d", i)
			node, err := cluster.NewNode(cluster.NodeConfig{Name: name, Engine: eng})
			if err != nil {
				return st, err
			}
			var h http.Handler = node
			if rec != nil {
				h = &nodeSpans{r: rec, next: node}
			}
			srv, err := serve(h)
			if err != nil {
				return st, err
			}
			st.nodeSrv = append(st.nodeSrv, srv)
			peers[i] = cluster.PeerSpec{Name: name, URL: srv.url}
		}
		// The gateway's default client, built here so the traced run can
		// wrap it without changing its pooling.
		st.rpcTr = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 8, IdleConnTimeout: 90 * time.Second}
		var rt http.RoundTripper = st.rpcTr
		if rec != nil {
			rt = &rpcSpans{r: rec, base: st.rpcTr}
		}
		st.gw, err = cluster.NewGateway(cluster.GatewayConfig{
			Peers:             peers,
			HTTPClient:        &http.Client{Transport: rt},
			HeartbeatInterval: -1,
			Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			return st, err
		}
		backend = st.gw
	default:
		return st, errors.New("bench: not a serving workload")
	}
	if rec != nil {
		backend = &backendSpans{StreamBackend: backend, r: rec}
	}
	if wrap != nil {
		backend = wrap(backend)
	}
	srv, err := platform.NewServer(platform.ServerConfig{Shards: backend, Universe: universe})
	if err != nil {
		return st, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = &platformSpans{r: rec, next: srv}
	}
	if st.plat, err = serve(h); err != nil {
		return st, err
	}
	for i := 0; i < sh.Clients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
		stamp := new(atomic.Uint64)
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &stampTransport{base: tr, stamp: stamp}
		}
		c := platform.NewClient(st.plat.url, &http.Client{Transport: rt})
		st.targets = append(st.targets, newHTTPTarget(c))
		st.trs = append(st.trs, tr)
		st.stamps = append(st.stamps, stamp)
	}
	return st, nil
}

// newEngine starts a shard engine with wall-clock stealing off: the
// clients call StealOnce themselves, every 100 events.
func newEngine(sh *Shape, shards, bufferLimit int) (*shard.Engine, error) {
	return shard.New(shard.Config{
		Shards:        shards,
		Stream:        stream.Config{Xmax: sh.Xmax, BufferLimit: bufferLimit},
		StealInterval: -1,
	})
}

// backlog is the number of buffered tasks across the deployment.
func (st *stack) backlog() int {
	if st.eng != nil {
		return st.eng.BufferLen()
	}
	n := 0
	for _, e := range st.nodes {
		n += e.BufferLen()
	}
	return n
}

func (st *stack) close() {
	for _, tr := range st.trs {
		tr.CloseIdleConnections()
	}
	if st.plat != nil {
		st.plat.stop()
	}
	if st.gw != nil {
		_ = st.gw.Close() // Close only fails queued RPC; none is left
	}
	for _, s := range st.nodeSrv {
		s.stop()
	}
	if st.rpcTr != nil {
		st.rpcTr.CloseIdleConnections()
	}
	if st.eng != nil {
		st.eng.Close()
	}
	for _, e := range st.nodes {
		e.Close()
	}
}

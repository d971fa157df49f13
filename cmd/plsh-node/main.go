// Command plsh-node serves one PLSH node over TCP, the per-machine unit of
// a multi-node deployment (the paper's 100-node cluster, §5.3). A
// coordinator connects with plsh.DialCluster and drives the unified
// Search surface: the versioned opSearch wire op carries each request's
// radius and top-k bound to this node, and opDoc fetches stored vectors
// by id. The -r flag is therefore only the node-side default radius —
// requests override it per query.
//
// Usage:
//
//	plsh-node -addr :7070 -dim 500000 -k 16 -m 16 -capacity 1000000 -data /var/lib/plsh
//
// -dim is the vocabulary the node can address, not one it pays for: the
// M·K/2 hyperplane coefficients of a word, a byte each (128 bytes at the
// defaults), are drawn when the word is first hashed, so the default
// 500 000 costs a 4 MB pointer table at boot — not the 64 MB of the whole
// matrix — and then 128 bytes per distinct word the node's documents and
// queries have used (Stats.FamilyBytes).
//
// Without -data all state is in memory and terminating the process
// discards it, exactly as retiring the node would. With -data the node is
// durable: on boot it recovers from the directory's snapshot and journal
// (every write acknowledged before a crash — even kill -9 — is queryable
// again), every acknowledged write is journaled before the RPC returns,
// and background merges checkpoint snapshots. SIGINT/SIGTERM shut the
// server down gracefully: intake stops at once (listener closed, no new
// requests decoded), requests already in flight get up to -drain to
// finish and answer — so an acknowledged write is never torn mid-journal
// by its own server's shutdown — and a final checkpoint is then written
// over the quiescent node so the next boot skips journal replay entirely.
// -drain 0 restores the abrupt legacy shutdown (in-flight calls fail
// immediately).
//
// Replicated deployments need nothing node-side: replication is purely a
// coordinator construct. Launch R identical processes per replica group —
// same -dim/-k/-m/-capacity and, critically, the same -seed, so the
// mirrors draw identical hyperplanes and answer identically — each with
// its own -data directory, list each group's members adjacently in the
// address list, and build the coordinator with plsh.WithReplicas(R). The
// coordinator mirrors every insert onto the whole group and fails
// searches over between members, so one process per group can be
// SIGKILLed without losing answers; restart it with the same -data and
// it recovers its journal and rejoins automatically (the coordinator
// re-dials on its next call).
//
// Partitioned placement is likewise coordinator-only: build the
// coordinator with plsh.WithPartitioned, passing a Config that restates
// the fleet's -dim, -k, -m, and -seed (the routing hyperplanes are
// derived from them, so the coordinator and every future coordinator of
// this fleet must agree). Inserts then land on the group chosen by each
// document's routing signature and searches probe only the groups that
// can hold their in-radius neighbors — nodes just see fewer search
// frames. Note that partitioned clusters have no rolling insert window:
// documents live where their signature says, so size -capacity for the
// whole stream.
//
// -debug-addr serves net/http/pprof on a second listener, and nothing else:
//
//	plsh-node -addr :7070 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// profiles a running node without a rebuild. It is off by default; the
// listener closes when the node shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/transport"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	dim := flag.Int("dim", 500000, "vector-space dimensionality; costs 8 bytes a word up front, then M·K/2 bytes a word seen (its hyperplane row)")
	k := flag.Int("k", 16, "bits per hash table (even, 2 to 32)")
	m := flag.Int("m", 16, "half-width hash functions (L = m(m-1)/2)")
	capacity := flag.Int("capacity", 1<<20, "maximum documents held")
	eta := flag.Float64("eta", 0.1, "delta fraction before automatic merge")
	radius := flag.Float64("r", 0.9, "default query radius in radians (requests override per query via search options)")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "hash-family seed; every node of a fleet must share it: replicas mirror each other only with identical hyperplanes, and a partitioned coordinator derives its routing from it")
	data := flag.String("data", "", "data directory: recover on boot, journal writes, checkpoint on merge and shutdown (empty = in-memory only)")
	fsync := flag.Bool("fsync", false, "fsync every journal append (survive machine crash, not just process death)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown window for in-flight requests on SIGINT/SIGTERM (0 = abort them immediately)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address (empty = off)")
	flag.Parse()

	build := core.Defaults()
	build.Workers = *workers
	query := core.QueryDefaults()
	query.Radius = *radius
	query.Workers = *workers
	n, err := node.Open(context.Background(), node.Config{
		Params:        lshhash.Params{Dim: *dim, K: *k, M: *m, Seed: *seed},
		Capacity:      *capacity,
		DeltaFraction: *eta,
		AutoMerge:     true,
		Build:         build,
		Query:         query,
		Dir:           *data,
		SyncWrites:    *fsync,
	})
	if err != nil {
		log.Fatalf("plsh-node: %v", err)
	}
	if *data != "" {
		log.Printf("plsh-node: recovered %d documents (%d static) from %s",
			n.Len(), n.StaticLen(), *data)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("plsh-node: %v", err)
	}
	stopDebug := func() error { return nil }
	if *debugAddr != "" {
		if stopDebug, err = serveDebug(*debugAddr); err != nil {
			log.Fatalf("plsh-node: %v", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("plsh-node: serving on %s (dim=%d k=%d m=%d L=%d capacity=%d)",
		l.Addr(), *dim, *k, *m, (*m)*(*m-1)/2, *capacity)
	onError := func(err error) { log.Printf("plsh-node: %v", err) }
	opts := transport.ServeOptions{Drain: *drain, OnError: onError}
	if err := transport.ServeWithOptions(ctx, l, transport.NewLocal(n), opts); err != nil {
		log.Fatalf("plsh-node: %v", err)
	}
	// Profiles in progress are cut off: the node they profile is gone.
	if err := stopDebug(); err != nil {
		log.Printf("plsh-node: close debug listener: %v", err)
	}
	if *data != "" {
		// Serve has drained every handler, so the node is quiescent: the
		// shutdown checkpoint makes the next boot a pure snapshot load.
		if err := n.Save(context.Background()); err != nil {
			log.Printf("plsh-node: shutdown checkpoint: %v", err)
		}
		if err := n.Close(); err != nil {
			log.Printf("plsh-node: close journal: %v", err)
		}
	}
	log.Printf("plsh-node: shut down")
}

// serveDebug serves net/http/pprof's handlers on addr from a mux of their
// own — not http.DefaultServeMux, on which any imported package may have
// registered something. The returned stop closes the listener and every
// open connection and returns once the server has exited.
func serveDebug(addr string) (stop func() error, err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // and every named profile under it
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("plsh-node: debug listener: %v", err)
		}
	}()
	log.Printf("plsh-node: pprof on http://%s/debug/pprof/", l.Addr())
	return func() error {
		err := srv.Close()
		<-done
		return err
	}, nil
}

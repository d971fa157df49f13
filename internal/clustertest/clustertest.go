// Package clustertest runs real multi-process PLSH clusters: it builds
// cmd/plsh-node once per process, spawns N node processes — each with its
// own TCP address and data directory — and lets the caller SIGKILL chosen
// nodes at chosen points and restart them (recovering from their
// write-ahead journals) to verify the cluster-level failover and rejoin
// guarantees.
//
// Unlike the in-process killable servers used by the fast tests, a node
// killed here dies the way a machine does: no Go cleanup runs, sockets
// are torn down by the kernel, and the only state that survives is what
// the durability layer journaled before the acknowledgment.
//
// The package has two front doors over one error-returning core: the
// testing wrapper Start (t.Fatal/t.Skip semantics, cleanup-registered
// kills) used by the `slow`-tagged fault-injection suite, and Spawn,
// which cmd/plsh-soak uses to drive the same fleets from a plain binary.
package clustertest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"plsh/internal/transport"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// errNoToolchain marks the build failure tests translate into a skip.
const errNoToolchain = "go toolchain unavailable"

// BuildNodeBinary builds cmd/plsh-node once per process and returns its
// path. The binary lands in a temp directory that outlives the caller
// (the OS reaps it); repeated calls return the first build.
func BuildNodeBinary() (string, error) {
	buildOnce.Do(func() {
		goBin, err := exec.LookPath("go")
		if err != nil {
			buildErr = fmt.Errorf("%s: %w", errNoToolchain, err)
			return
		}
		out, err := exec.Command(goBin, "env", "GOMOD").Output()
		if err != nil {
			buildErr = fmt.Errorf("go env GOMOD: %w", err)
			return
		}
		root := filepath.Dir(strings.TrimSpace(string(out)))
		dir, err := os.MkdirTemp("", "plsh-clustertest-")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "plsh-node")
		cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/plsh-node")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build plsh-node: %v\n%s", err, out)
			return
		}
		buildBin = bin
	})
	return buildBin, buildErr
}

// nodeBinary is BuildNodeBinary with test policy: skip when no go
// toolchain is available (the same policy as the root package's kill -9
// recovery test), fail on real build errors.
func nodeBinary(t testing.TB) string {
	t.Helper()
	bin, err := BuildNodeBinary()
	if err != nil {
		if strings.Contains(err.Error(), errNoToolchain) {
			t.Skip(err)
		}
		t.Fatal(err)
	}
	return bin
}

// Node is one plsh-node process of a Fleet. Addr and Dir are stable
// across Kill/Start cycles, so a restarted node recovers its own journal
// and rejoins at the address the coordinator already knows.
type Node struct {
	Addr string
	Dir  string

	bin  string
	args []string
	proc *proc // nil while the node is down
}

// proc is one launch of a node process. Its one waiter reaps it: done
// closes when cmd.Wait returns, and err and stderr are read only after.
type proc struct {
	cmd    *exec.Cmd
	stderr tail
	done   chan struct{}
	err    error // cmd.Wait's
}

// tail keeps the last tailBytes written to it: the end of a node's log,
// where a process that failed to start wrote why.
type tail struct{ buf []byte }

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - tailBytes; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

// Start launches (or relaunches) the node process and waits until it
// answers RPCs — after a kill, that includes its snapshot load and
// journal replay. A process that exits first is an error carrying its exit
// status and the end of its log, returned as soon as it exits.
func (n *Node) Start() error {
	if n.proc != nil {
		return fmt.Errorf("clustertest: Start on a running node at %s (Kill or Stop it first)", n.Addr)
	}
	args := append([]string{"-addr", n.Addr, "-data", n.Dir}, n.args...)
	p := &proc{cmd: exec.Command(n.bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = io.Discard, &p.stderr
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("clustertest: start plsh-node: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	n.proc = p
	if err := n.waitReady(15 * time.Second); err != nil {
		n.Kill()
		return err
	}
	return nil
}

// Kill SIGKILLs the node process and reaps it — no shutdown path runs,
// exactly like a machine loss. Idempotent on an already-dead node.
func (n *Node) Kill() {
	if n.proc == nil {
		return
	}
	// Best-effort teardown of a process we are abandoning: Kill on an
	// already-dead process and its exit status are both uninteresting.
	_ = n.proc.cmd.Process.Kill()
	<-n.proc.done
	n.proc = nil
}

// Stop SIGTERMs the node and waits up to timeout for it to exit — the
// graceful path: the process drains in-flight RPCs, checkpoints, and
// exits 0. A process still alive at the deadline is SIGKILLed and the
// call errors; a nonzero exit status errors too, also that of a process
// that exited before Stop was called. Idempotent on an already-dead node.
func (n *Node) Stop(timeout time.Duration) error {
	if n.proc == nil {
		return nil
	}
	p := n.proc
	n.proc = nil
	// ErrProcessDone: the process exited by itself and its waiter has
	// reaped it; done closes with its exit status.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("clustertest: SIGTERM node at %s: %w", n.Addr, err)
	}
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("clustertest: node at %s exited uncleanly after SIGTERM: %w", n.Addr, p.err)
		}
		return nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("clustertest: node at %s did not exit within %v of SIGTERM", n.Addr, timeout)
	}
}

// Running reports whether the node process is currently up (as far as
// this harness knows — a crash the caller did not inject is not tracked).
func (n *Node) Running() bool { return n.proc != nil }

// Signal sends sig to the node process; a no-op when the node is down or
// its process has exited. SIGSTOP/SIGCONT pairs freeze a live replica — the
// process holds its sockets but answers nothing — which is the fault that
// forces hedged searches to fire and win (a dead replica fails fast and
// exercises failover instead).
func (n *Node) Signal(sig os.Signal) error {
	if n.proc == nil {
		return nil
	}
	if err := n.proc.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return nil
}

// waitReady polls the node with real RPCs until it answers (the listener
// may be up before Serve is wired, and a restart replays its journal
// first), and stops polling as soon as the process exits.
func (n *Node) waitReady(timeout time.Duration) error {
	ctx := context.Background()
	p := n.proc
	deadline := time.After(timeout)
	for {
		c, err := transport.Dial(ctx, n.Addr)
		if err == nil {
			_, err = c.Stats(ctx)
			c.Close()
			if err == nil {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("clustertest: node at %s exited before it answered (%v): %s", n.Addr, p.err, bytes.TrimSpace(p.stderr.buf))
		case <-deadline:
			return fmt.Errorf("clustertest: node at %s not ready: %w", n.Addr, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Fleet is a set of plsh-node processes under one caller's control.
type Fleet struct {
	Nodes []*Node
}

// reserveAddrs returns n pairwise distinct loopback TCP addresses. All n
// listeners are held open until every address is recorded and only then
// closed together: while a listener holds its port the kernel cannot hand
// that port to a later listen-on-0, which closing inside the loop allowed
// — two nodes of one fleet on one port, one process answering as both.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close() // nothing was accepted or written; the port is all that was held
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("clustertest: reserve address %d of %d: %w", i+1, n, err)
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// Spawn builds the node binary, reserves n TCP addresses, and launches n
// durable node processes at once, each with its own data directory under
// dataRoot plus the given extra flags (dimensions, seed, ...), returning
// when every one answers. On error, every process launched is killed.
// The caller owns shutdown: KillAll (or per-node Kill/Stop) when done.
func Spawn(n int, dataRoot string, extraArgs ...string) (*Fleet, error) {
	bin, err := BuildNodeBinary()
	if err != nil {
		return nil, err
	}
	addrs, err := reserveAddrs(n)
	if err != nil {
		return nil, err
	}
	f := &Fleet{}
	for i, addr := range addrs {
		dir := filepath.Join(dataRoot, fmt.Sprintf("node-%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f.Nodes = append(f.Nodes, &Node{
			Addr: addr,
			Dir:  dir,
			bin:  bin,
			args: extraArgs,
		})
	}
	// The nodes start concurrently; a fleet starts whole or not at all.
	errs := make([]error, len(f.Nodes))
	var wg sync.WaitGroup
	for i, nd := range f.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = nd.Start()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.KillAll()
		return nil, err
	}
	return f, nil
}

// Start is the testing front door over Spawn: node data directories live
// under the test's temp space, failures are t.Fatal (or t.Skip without a
// toolchain), and every process still running at test end is SIGKILLed
// by cleanup.
func Start(t testing.TB, n int, extraArgs ...string) *Fleet {
	t.Helper()
	nodeBinary(t) // resolve skip-vs-fatal before Spawn can fail on it
	f, err := Spawn(n, t.TempDir(), extraArgs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.KillAll)
	return f
}

// KillAll SIGKILLs every node still running, in fleet order.
func (f *Fleet) KillAll() {
	for _, nd := range f.Nodes {
		nd.Kill()
	}
}

// Addrs returns every node's address, in fleet order (group-major when
// the coordinator is built with replicas).
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.Nodes))
	for i, nd := range f.Nodes {
		out[i] = nd.Addr
	}
	return out
}

package client_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/livecluster"
)

// resetProxy forwards TCP connections to one backend and can cut every
// connection it carries at once, which is what a client sees of a reset:
// the node behind it keeps running.
type resetProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	conns   []net.Conn
}

func newResetProxy(t *testing.T, backend string) *resetProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &resetProxy{ln: ln, backend: backend}
	go p.accept()
	t.Cleanup(func() {
		ln.Close()
		p.reset()
	})
	return p
}

func (p *resetProxy) addr() string { return p.ln.Addr().String() }

func (p *resetProxy) accept() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		go func() { io.Copy(out, in); out.Close() }()
		go func() { io.Copy(in, out); in.Close() }()
	}
}

// take hands over every connection the proxy carries; closing them is the
// reset.
func (p *resetProxy) take() []net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.conns
	p.conns = nil
	return conns
}

func (p *resetProxy) reset() {
	for _, c := range p.take() {
		c.Close()
	}
}

// TestAsyncOkConnectionResetMidLoad resets the client's connection three
// times under a pipeline of AsyncOk operations, each time with more than a
// thousand of them outstanding. AsyncOk recycles its per-operation state
// when an operation completes, so this is where a struct handed back too
// early, or read after it was handed back, would show: every callback must
// run exactly once and with its own operation's outcome — every operation
// fails over at most once here, so each must succeed, and every
// acknowledged write must be in the replicas' state exactly once.
func TestAsyncOkConnectionResetMidLoad(t *testing.T) {
	// Cycles 50 ms apart: the generator fills its window between two of
	// them, so a reset finds the whole window outstanding.
	const interval = 100 * time.Millisecond
	c, err := livecluster.Start(livecluster.Config{
		Nodes:        3,
		Node:         core.Config{CycleInterval: interval, TickInterval: 5 * time.Millisecond},
		Seed:         23,
		LoggedStores: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	var proxies [3]*resetProxy
	var endpoints []string
	for i := range proxies {
		proxies[i] = newResetProxy(t, c.ClientAddr(i))
		endpoints = append(endpoints, proxies[i].addr())
	}
	cl, err := client.New(client.Config{Endpoints: endpoints, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(context.Background(), 1<<40, []byte("session-up")); err != nil {
		t.Fatal(err)
	}

	const (
		ops      = 20000
		window   = 3000 // operations in flight when the generator has to wait
		minAtCut = 1000
		resets   = 3
	)
	var (
		calls    [ops]atomic.Int32
		failed   atomic.Int32
		inFlight = make(chan struct{}, window)
		done     sync.WaitGroup
	)
	done.Add(ops)
	goodResets, lastReset := 0, 0
	for i := 0; i < ops; i++ {
		select {
		case inFlight <- struct{}{}:
		default:
			// The window is full: cut every connection now.
			if goodResets < resets {
				// No operation is reset twice: those an earlier reset can
				// have caught are answered first.
				for j, deadline := 0, time.Now().Add(30*time.Second); j < lastReset; j++ {
					for calls[j].Load() == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("op %d, outstanding at the reset before op %d, was never answered", j, lastReset)
						}
						time.Sleep(time.Millisecond)
					}
				}
				lastReset = i
				before := cl.Stats().Retries
				// Taken from every proxy before the first is closed: the
				// connection the client fails over to must not be cut too.
				var cut []net.Conn
				for _, p := range proxies {
					cut = append(cut, p.take()...)
				}
				for _, c := range cut {
					c.Close()
				}
				// A commit that lands between the full window and the cut
				// answers the window first; such a reset does not count.
				for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if cl.Stats().Retries-before >= minAtCut {
						goodResets++
						break
					}
				}
			}
			select {
			case inFlight <- struct{}{}:
			case <-time.After(30 * time.Second):
				t.Fatalf("op %d: no operation of a full window completed in 30 s", i)
			}
		}
		i := i
		op := client.Op{Kind: client.OpGet, Key: uint64(i)}
		if i%2 == 0 {
			op = client.Op{Kind: client.OpPut, Key: uint64(i), Val: []byte(fmt.Sprintf("v%d", i))}
		}
		cl.AsyncOk(op, func(ok bool) {
			calls[i].Add(1)
			if !ok {
				failed.Add(1)
			}
			<-inFlight
			done.Done()
		})
	}
	if goodResets < resets {
		t.Fatalf("%d resets found at least %d operations outstanding, want %d; test premise broken", goodResets, minAtCut, resets)
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		missing := 0
		for i := range calls {
			if calls[i].Load() == 0 {
				missing++
			}
		}
		t.Fatalf("%d of %d callbacks never ran", missing, ops)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("callback of op %d ran %d times", i, n)
		}
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d operations failed; each was reset at most once and must succeed on its retry", n)
	}
	waitApplied(t, c, 0, 1, 2)
	for node := 0; node < 3; node++ {
		c.InspectStore(node, func(st *kvstore.Store) {
			if got := st.LogLen(); got != ops/2+1 {
				t.Errorf("node %d applied %d writes, want %d (a write lost or applied twice)", node, got, ops/2+1)
			}
			for i := 0; i < ops; i += 2 {
				if got, want := string(st.Read(uint64(i))), fmt.Sprintf("v%d", i); got != want {
					t.Errorf("node %d key %d = %q, want %q", node, i, got, want)
					return
				}
			}
		})
	}
}

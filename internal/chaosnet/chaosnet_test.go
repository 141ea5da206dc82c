package chaosnet

import (
	"io"
	"net"
	"testing"
	"time"

	"canopus/internal/wire"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newTestNet(t *testing.T) *Net {
	t.Helper()
	n := New(Config{Logf: t.Logf, Seed: 7})
	t.Cleanup(n.Close)
	return n
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes msg and reads len(msg) bytes back, failing on timeout.
func roundTrip(t *testing.T, c net.Conn, msg string) string {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return string(buf)
}

func TestProxyPassthrough(t *testing.T) {
	up := echoServer(t)
	n := newTestNet(t)
	addr, err := n.AddLink(0, 1, up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	if got := roundTrip(t, c, "hello chaos"); got != "hello chaos" {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestLatencyDelaysForwarding(t *testing.T) {
	up := echoServer(t)
	n := newTestNet(t)
	addr, err := n.AddLink(0, 1, up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	roundTrip(t, c, "warm") // establish the upstream path un-delayed

	const oneWay = 60 * time.Millisecond
	n.SetLatency(0, 1, oneWay)
	start := time.Now()
	roundTrip(t, c, "delayed")
	if el := time.Since(start); el < oneWay {
		t.Fatalf("round trip %v did not include one-way delay %v", el, oneWay)
	}

	// Runtime-controllable: clearing the delay restores fast paths.
	n.SetLatency(0, 1, 0)
	start = time.Now()
	roundTrip(t, c, "fast again")
	if el := time.Since(start); el > oneWay {
		t.Fatalf("round trip %v still delayed after clearing latency", el)
	}
}

func TestPartitionBlackholesAndHealRestores(t *testing.T) {
	up := echoServer(t)
	n := newTestNet(t)
	addr, err := n.AddLink(0, 1, up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	roundTrip(t, c, "before")

	n.Partition([]wire.NodeID{0}, []wire.NodeID{1})

	// The established connection is reset.
	c.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("expected reset of existing connection after partition")
	}

	// A fresh dial succeeds (TCP accept) but is a silent blackhole:
	// writes land, nothing ever comes back.
	c2 := dialT(t, addr)
	if _, err := c2.Write([]byte("into the void")); err != nil {
		t.Fatalf("blackhole write should succeed: %v", err)
	}
	c2.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c2.Read(buf); err == nil {
		t.Fatal("blackhole returned data")
	}

	n.Heal()

	// Heal killed the zombie so the client notices and redials.
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(buf); err == nil {
		t.Fatal("expected zombie connection to be closed by heal")
	}
	c3 := dialT(t, addr)
	if got := roundTrip(t, c3, "after heal"); got != "after heal" {
		t.Fatalf("echo mismatch after heal: %q", got)
	}
}

func TestDropResetsConnections(t *testing.T) {
	up := echoServer(t)
	n := newTestNet(t)
	addr, err := n.AddLink(0, 1, up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n.SetDrop(0, 1, 1.0)
	c := dialT(t, addr)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	c.Write([]byte("doomed"))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("expected connection reset with drop probability 1")
	}

	// Clearing the probability restores the link for new connections.
	n.SetDrop(0, 1, 0)
	c2 := dialT(t, addr)
	if got := roundTrip(t, c2, "survives"); got != "survives" {
		t.Fatalf("echo mismatch after clearing drop: %q", got)
	}
}

func TestDirectedPartitionIsAsymmetric(t *testing.T) {
	upA := echoServer(t)
	upB := echoServer(t)
	n := newTestNet(t)
	ab, err := n.AddLink(0, 1, upB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ba, err := n.AddLink(1, 0, upA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n.PartitionDirected([]wire.NodeID{0}, []wire.NodeID{1})

	// 0→1 is blackholed…
	c := dialT(t, ab)
	c.Write([]byte("lost"))
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("0->1 should be blackholed")
	}
	// …while 1→0 still flows.
	c2 := dialT(t, ba)
	if got := roundTrip(t, c2, "reverse ok"); got != "reverse ok" {
		t.Fatalf("1->0 should be healthy, got %q", got)
	}
}

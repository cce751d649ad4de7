package netsim

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func TestUDPSendRecv(t *testing.T) {
	k, _, a, b := twoNodes(10*units.Mbps, time.Millisecond)
	sa := NewUDPStack(a)
	sb := NewUDPStack(b)
	src, err := sa.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sb.Bind(5000)
	if err != nil {
		t.Fatal(err)
	}
	var got Datagram
	received := false
	k.Spawn("recv", func(ctx *sim.Ctx) {
		d, err := dst.Recv(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		got, received = d, true
	})
	k.Spawn("send", func(ctx *sim.Ctx) {
		ok, err := src.SendTo(b.Addr(), 5000, 1200, "hello")
		if err != nil || !ok {
			t.Errorf("SendTo: ok=%v err=%v", ok, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !received {
		t.Fatal("no datagram received")
	}
	if got.Len != 1200 || got.Payload.(string) != "hello" || got.From != a.Addr() || got.FromPort != src.Port() {
		t.Fatalf("datagram = %+v", got)
	}
}

func TestUDPPortInUse(t *testing.T) {
	_, _, a, _ := twoNodes(units.Mbps, 0)
	s := NewUDPStack(a)
	if _, err := s.Bind(7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(7); err == nil {
		t.Fatal("expected port-in-use error")
	}
}

func TestUDPEphemeralPortsDistinct(t *testing.T) {
	_, _, a, _ := twoNodes(units.Mbps, 0)
	s := NewUDPStack(a)
	seen := map[Port]bool{}
	for i := 0; i < 10; i++ {
		sock, err := s.Bind(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sock.Port()] {
			t.Fatalf("ephemeral port %d reused", sock.Port())
		}
		seen[sock.Port()] = true
	}
}

func TestUDPNoSocketDrop(t *testing.T) {
	k, _, a, b := twoNodes(units.Mbps, 0)
	sa := NewUDPStack(a)
	sb := NewUDPStack(b)
	src, _ := sa.Bind(0)
	src.SendTo(b.Addr(), 9999, 100, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.RxDrops() != 1 {
		t.Fatalf("RxDrops = %d, want 1", sb.RxDrops())
	}
}

func TestUDPClose(t *testing.T) {
	k, _, a, b := twoNodes(units.Mbps, 0)
	sa := NewUDPStack(a)
	NewUDPStack(b)
	sock, _ := sa.Bind(100)
	recvErr := error(nil)
	k.Spawn("recv", func(ctx *sim.Ctx) {
		_, recvErr = sock.Recv(ctx)
	})
	k.After(time.Second, func() { sock.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr != ErrClosed {
		t.Fatalf("recv error = %v, want ErrClosed", recvErr)
	}
	if _, err := sock.SendTo(b.Addr(), 1, 10, nil); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	// Port is free again.
	if _, err := sa.Bind(100); err != nil {
		t.Fatalf("rebind after close failed: %v", err)
	}
}

func TestUDPTryRecvAndPending(t *testing.T) {
	k, _, a, b := twoNodes(10*units.Mbps, 0)
	sa := NewUDPStack(a)
	sb := NewUDPStack(b)
	src, _ := sa.Bind(0)
	dst, _ := sb.Bind(300)
	for i := 0; i < 3; i++ {
		src.SendTo(b.Addr(), 300, 100, i)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", dst.Pending())
	}
	d, ok := dst.TryRecv()
	if !ok || d.Payload.(int) != 0 {
		t.Fatalf("TryRecv = %+v/%v", d, ok)
	}
}

func TestUDPTxStats(t *testing.T) {
	k, _, a, b := twoNodes(10*units.Mbps, 0)
	sa := NewUDPStack(a)
	NewUDPStack(b)
	src, _ := sa.Bind(0)
	src.SendTo(b.Addr(), 1, 400, nil)
	src.SendTo(b.Addr(), 1, 600, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n, bytes := src.TxStats()
	if n != 2 || bytes != 1000 {
		t.Fatalf("TxStats = %d/%d, want 2/1000", n, bytes)
	}
}

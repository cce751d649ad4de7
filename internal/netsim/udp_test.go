package netsim

import (
	"testing"
	"time"

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
	var got []Datagram
	dst.Serve(func(d Datagram) { got = append(got, d) })
	for _, n := range []units.ByteSize{1200, 300} {
		ok, err := src.SendTo(b.Addr(), 5000, n)
		if err != nil || !ok {
			t.Errorf("SendTo: ok=%v err=%v", ok, err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Len != 1200 || got[1].Len != 300 || dst.Pending() != 0 {
		t.Fatalf("datagrams = %+v, pending %d", got, dst.Pending())
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
		if seen[sock.port] {
			t.Fatalf("ephemeral port %d reused", sock.port)
		}
		seen[sock.port] = true
	}
}

func TestUDPNoSocketDrop(t *testing.T) {
	k, _, a, b := twoNodes(units.Mbps, 0)
	sa := NewUDPStack(a)
	sb := NewUDPStack(b)
	src, _ := sa.Bind(0)
	src.SendTo(b.Addr(), 9999, 100)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The datagram was dropped on arrival, not held for a later bind.
	late, _ := sb.Bind(9999)
	if late.Pending() != 0 {
		t.Fatalf("pending = %d after a late bind, want 0", late.Pending())
	}
}

func TestUDPTxStats(t *testing.T) {
	k, _, a, b := twoNodes(10*units.Mbps, 0)
	sa := NewUDPStack(a)
	NewUDPStack(b)
	src, _ := sa.Bind(0)
	src.SendTo(b.Addr(), 1, 400)
	src.SendTo(b.Addr(), 1, 600)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ifc := a.Ifaces()[0]
	n, bytes := ifaceCount(ifc, "netsim_tx_packets_total"), ifaceCount(ifc, "netsim_tx_bytes_total")
	if n != 2 || bytes != 1000+2*int64(UDPHeader+IPHeader) {
		t.Fatalf("transmitted %d datagrams, %d bytes; want 2, 1000 B of payload", n, bytes)
	}
}

package topology

import (
	"sync"
	"testing"
)

func TestTopologyIndexing(t *testing.T) {
	top := New(4, 3)
	if top.NumClients() != 12 {
		t.Fatalf("NumClients = %d", top.NumClients())
	}
	if top.ClientID(2, 1) != 7 {
		t.Fatalf("ClientID(2,1) = %d", top.ClientID(2, 1))
	}
	if top.EdgeOf(7) != 2 {
		t.Fatalf("EdgeOf(7) = %d", top.EdgeOf(7))
	}
	// Round trip for every client.
	for e := 0; e < 4; e++ {
		for i := 0; i < 3; i++ {
			if top.EdgeOf(top.ClientID(e, i)) != e {
				t.Fatalf("round trip broken for (%d,%d)", e, i)
			}
		}
	}
}

func TestTopologyPanics(t *testing.T) {
	top := New(2, 2)
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { top.ClientID(2, 0) },
		func() { top.ClientID(0, 2) },
		func() { top.EdgeOf(4) },
		func() { top.EdgeOf(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLedgerCounting(t *testing.T) {
	l := NewLedger()
	l.RecordRound(ClientEdge, 3, 100)
	l.RecordRound(EdgeCloud, 2, 50)
	l.RecordRound(EdgeCloud, 2, 50)
	l.RecordRound(ClientCloud, 5, 10)
	s := l.Snapshot()
	if s.Rounds[ClientEdge] != 1 || s.Rounds[EdgeCloud] != 2 || s.Rounds[ClientCloud] != 1 {
		t.Fatal("round counts wrong")
	}
	if s.Messages[ClientEdge] != 3 || s.Bytes[ClientEdge] != 300 {
		t.Fatal("message/byte counts wrong")
	}
	if s.CloudRounds() != 3 {
		t.Fatalf("CloudRounds = %d", s.CloudRounds())
	}
	if s.CloudBytes() != 2*2*50+5*10 {
		t.Fatalf("CloudBytes = %d", s.CloudBytes())
	}
	if s.TotalBytes() != 300+200+50 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	l.RecordBulk(EdgeCloud, 0, 1, 7)
	if s := l.Snapshot(); s.Rounds[EdgeCloud] != 2 || s.Messages[EdgeCloud] != 5 || s.Bytes[EdgeCloud] != 207 {
		t.Fatal("a zero-round bulk record must not open a round")
	}
}

func TestLedgerSnapshotAndReset(t *testing.T) {
	l := NewLedger()
	l.RecordRound(EdgeCloud, 1, 8)
	s := l.Snapshot()
	if s.CloudRounds() != 1 || s.Bytes[EdgeCloud] != 8 {
		t.Fatal("snapshot wrong")
	}
	// Snapshot must be an immutable copy, and Restore its inverse.
	l.RecordRound(EdgeCloud, 1, 8)
	if s.CloudRounds() != 1 {
		t.Fatal("snapshot mutated by a later record")
	}
	l.Restore(LedgerSnapshot{})
	if r := l.Snapshot(); r.CloudRounds() != 0 || r.TotalBytes() != 0 {
		t.Fatal("restoring the zero snapshot left counts behind")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.RecordRound(EdgeCloud, 1, 4)
			}
		}()
	}
	wg.Wait()
	if s := l.Snapshot(); s.Rounds[EdgeCloud] != workers*per || s.Bytes[EdgeCloud] != workers*per*4 {
		t.Fatalf("lost updates: %d rounds, %d bytes", s.Rounds[EdgeCloud], s.Bytes[EdgeCloud])
	}
}

// TestModelBytes: a model costs d 8-byte elements.
func TestModelBytes(t *testing.T) {
	if got := ModelBytes(7850); got != 62800 {
		t.Fatalf("ModelBytes = %d, want 62800", got)
	}
}

func TestLinkString(t *testing.T) {
	for _, l := range []Link{ClientEdge, EdgeCloud, ClientCloud} {
		if l.String() == "" {
			t.Fatal("empty link name")
		}
	}
	if Link(99).String() == "" {
		t.Fatal("unknown link must still print")
	}
}

package trace

import (
	"sync"
	"testing"
)

func TestBufferRecordAndSnapshot(t *testing.T) {
	b := NewBuffer()
	b.Record(Event{Kind: KindSend, Node: 1, Msg: 7})
	b.Record(Event{Kind: KindDeliver, Node: 2, Msg: 7})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	evs := b.Events()
	if evs[0].Kind != KindSend || evs[1].Kind != KindDeliver {
		t.Fatalf("events = %+v", evs)
	}
	// Snapshot must be independent.
	evs[0].Node = 99
	if b.Events()[0].Node != 1 {
		t.Fatal("Events must return a copy")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset must clear")
	}
}

func TestBufferConcurrent(t *testing.T) {
	b := NewBuffer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Record(Event{Kind: KindSend})
			}
		}()
	}
	wg.Wait()
	if b.Len() != 800 {
		t.Fatalf("Len = %d, want 800", b.Len())
	}
}

func TestSerialMatchesBuffer(t *testing.T) {
	var _ Sink = (*Serial)(nil)
	s := NewSerial(4)
	b := NewBuffer()
	evs := []Event{
		{Kind: KindSend, Time: 1, Node: 3, Act: 2, Msg: 7},
		{Kind: KindDeliver, Time: 2, Node: 4, Act: 3, Msg: 7},
		{Kind: KindFaultDrop, Time: 2, Node: 4, Cause: "drop"},
	}
	for _, e := range evs {
		s.Record(e)
		b.Record(e)
	}
	if s.Len() != b.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), b.Len())
	}
	se, be := s.Events(), b.Events()
	for i := range be {
		if se[i] != be[i] {
			t.Fatalf("event %d: %+v, want %+v", i, se[i], be[i])
		}
	}
	// Snapshot must be independent of later records.
	se[0].Node = 99
	s.Record(Event{Kind: KindInject})
	if s.Events()[0].Node != 3 {
		t.Fatal("Events must return a copy")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset must clear")
	}
}

func TestDiscard(t *testing.T) {
	var d Discard
	d.Record(Event{Kind: KindDrop}) // must not panic
}

func TestPerNode(t *testing.T) {
	evs := []Event{
		{Kind: KindSend, Time: 0, Node: 1, Msg: 1},
		{Kind: KindDeliver, Time: 1, Node: 2, Msg: 1},
		{Kind: KindSend, Time: 1, Node: 2, Msg: 2},
		{Kind: KindDeliver, Time: 2, Node: 1, Msg: 2},
		{Kind: KindFaultDrop, Time: 3, Node: 2, Cause: "drop"},
	}
	p := PerNode(evs)
	if len(p) != 2 {
		t.Fatalf("nodes = %d, want 2", len(p))
	}
	if got := p[1]; len(got) != 2 || got[0].Msg != 1 || got[1].Msg != 2 {
		t.Fatalf("node 1 projection = %+v", got)
	}
	if got := p[2]; len(got) != 3 || got[2].Kind != KindFaultDrop {
		t.Fatalf("node 2 projection = %+v", got)
	}
	if p := PerNode(nil); len(p) != 0 {
		t.Fatalf("empty projection = %+v", p)
	}
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Reset discards all recorded events.
func (b *Buffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = b.events[:0]
}

// Len returns the number of recorded events.
func (s *Serial) Len() int { return len(s.events) }

// Reset discards all recorded events, keeping the backing array.
func (s *Serial) Reset() { s.events = s.events[:0] }

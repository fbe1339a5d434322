package anr

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDirect(t *testing.T) {
	h := Direct([]ID{3, 1, 2})
	want := Header{{Link: 3}, {Link: 1}, {Link: 2}, {Link: NCU}}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("Direct = %v, want %v", h, want)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.HopCount() != 3 {
		t.Fatalf("HopCount = %d, want 3", h.HopCount())
	}
}

func TestOneHopMatchesDirect(t *testing.T) {
	ids := []ID{maxLinkID, maxLinkID + 1, 1<<32 - 1}
	for x := ID(0); x < oneHopTable+4; x++ {
		ids = append(ids, x)
	}
	for _, x := range ids {
		h := OneHop(x)
		if want := Direct([]ID{x}); !reflect.DeepEqual(h, want) {
			t.Fatalf("OneHop(%d) = %v, want %v", x, h, want)
		}
		if cap(h) != len(h) {
			t.Fatalf("OneHop(%d): cap %d, len %d", x, cap(h), len(h))
		}
	}
	// An append to one shared header must move it out, not overwrite the
	// header of the next ID.
	_ = append(OneHop(7), Hop{Link: 99})
	if want := Direct([]ID{8}); !reflect.DeepEqual(OneHop(8), want) {
		t.Fatalf("after an append to OneHop(7), OneHop(8) = %v, want %v", OneHop(8), want)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = OneHop(oneHopTable - 1) }); allocs != 0 {
		t.Fatalf("OneHop inside the table: %.0f allocs, want 0", allocs)
	}
}

func TestCopyPath(t *testing.T) {
	h := CopyPath([]ID{3, 1, 2})
	want := Header{{Link: 3}, {Link: 1, Copy: true}, {Link: 2, Copy: true}, {Link: NCU}}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("CopyPath = %v, want %v", h, want)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCopyPathSingleHop(t *testing.T) {
	h := CopyPath([]ID{5})
	want := Header{{Link: 5}, {Link: NCU}}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("CopyPath single = %v, want %v", h, want)
	}
}

func TestLocal(t *testing.T) {
	h := Local()
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.HopCount() != 0 {
		t.Fatalf("HopCount = %d, want 0", h.HopCount())
	}
}

func TestConcat(t *testing.T) {
	a := Direct([]ID{1, 2})
	b := Direct([]ID{3})
	c := Concat(a, b)
	want := Header{{Link: 1}, {Link: 2}, {Link: 3}, {Link: NCU}}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Concat = %v, want %v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestConcatWithLocal(t *testing.T) {
	a := Direct([]ID{4})
	if got := Concat(a, Local()); !reflect.DeepEqual(got, a) {
		t.Fatalf("Concat(a, Local) = %v, want %v", got, a)
	}
	if got := Concat(Local(), a); !reflect.DeepEqual(got, a) {
		t.Fatalf("Concat(Local, a) = %v, want %v", got, a)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		h    Header
		want error
	}{
		{"empty", Header{}, ErrEmptyHeader},
		{"no terminator", Header{{Link: 2}}, ErrNoTerminator},
		{"early NCU", Header{{Link: NCU}, {Link: 2}, {Link: NCU}}, ErrEarlyNCU},
		{"copy on NCU", Header{{Link: 2}, {Link: NCU, Copy: true}}, ErrCopyToNCU},
		{"id range", Header{{Link: maxLinkID + 1}, {Link: NCU}}, ErrIDRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.h.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCheckDmax(t *testing.T) {
	h := Direct([]ID{1, 2, 3})
	if err := h.CheckDmax(3); err != nil {
		t.Fatalf("CheckDmax(3): %v", err)
	}
	if err := h.CheckDmax(2); !errors.Is(err, ErrPathTooLong) {
		t.Fatalf("CheckDmax(2) = %v, want ErrPathTooLong", err)
	}
	if err := h.CheckDmax(0); err != nil {
		t.Fatalf("CheckDmax(0) unrestricted: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	h := Direct([]ID{1, 2})
	c := h.Clone()
	c[0].Link = 9
	if h[0].Link != 1 {
		t.Fatal("Clone is not independent")
	}
}

func TestString(t *testing.T) {
	h := CopyPath([]ID{3, 5})
	if got := h.String(); got != "3 >5* >0" {
		t.Fatalf("String = %q, want %q", got, "3 >5* >0")
	}
}

func TestIDWidth(t *testing.T) {
	tests := []struct {
		deg, want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1000, 10},
	}
	for _, tt := range tests {
		if got := IDWidth(tt.deg); got != tt.want {
			t.Fatalf("IDWidth(%d) = %d, want %d", tt.deg, got, tt.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := Header{{Link: 3}, {Link: 1, Copy: true}, {Link: 7, Copy: true}, {Link: NCU}}
	data, err := h.Encode(3)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data, 3)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("round trip = %v, want %v", got, h)
	}
}

func TestEncodeRejectsWideID(t *testing.T) {
	h := Direct([]ID{9}) // needs 4 bits
	if _, err := h.Encode(3); !errors.Is(err, ErrIDRange) {
		t.Fatalf("Encode = %v, want ErrIDRange", err)
	}
}

func TestEncodeRejectsInvalidWidth(t *testing.T) {
	h := Local()
	if _, err := h.Encode(0); err == nil {
		t.Fatal("Encode(width=0) accepted")
	}
	if _, err := h.Encode(21); err == nil {
		t.Fatal("Encode(width=21) accepted")
	}
	if _, err := Decode([]byte{0}, 0); err == nil {
		t.Fatal("Decode(width=0) accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	h := Direct([]ID{1, 2, 3})
	data, err := h.Encode(4)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(data[:1], 4); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode truncated = %v, want ErrTruncated", err)
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	if _, err := Decode(nil, 4); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode(nil) = %v, want ErrTruncated", err)
	}
}

// Property: Encode/Decode round-trips arbitrary valid headers at the minimal
// sufficient width.
func TestWireRoundTripQuick(t *testing.T) {
	f := func(seed int64, ln uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(ln % 40)
		width := 1 + rng.Intn(12)
		maxID := ID(1)<<width - 1
		links := make([]ID, n)
		copies := make([]bool, n)
		for i := range links {
			links[i] = 1 + ID(rng.Intn(int(maxID)))
			copies[i] = rng.Intn(2) == 0
		}
		h := make(Header, 0, n+1)
		for i := range links {
			h = append(h, Hop{Link: links[i], Copy: copies[i]})
		}
		h = append(h, Hop{Link: NCU})
		data, err := h.Encode(width)
		if err != nil {
			return false
		}
		got, err := Decode(data, width)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Concat(a, b).HopCount() == a.HopCount() + b.HopCount().
func TestConcatHopCountQuick(t *testing.T) {
	f := func(aLinks, bLinks []uint16) bool {
		mk := func(ls []uint16) Header {
			ids := make([]ID, 0, len(ls))
			for _, l := range ls {
				ids = append(ids, ID(l)+1) // avoid NCU
			}
			return Direct(ids)
		}
		a, b := mk(aLinks), mk(bLinks)
		c := Concat(a, b)
		if c.HopCount() != a.HopCount()+b.HopCount() {
			return false
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: wire encoding length matches ceil(len(h)*(width+1)/8) bytes.
func TestEncodeLengthQuick(t *testing.T) {
	f := func(n uint8, w uint8) bool {
		width := int(w%12) + 1
		hops := int(n % 30)
		h := make(Header, 0, hops+1)
		for i := 0; i < hops; i++ {
			h = append(h, Hop{Link: 1})
		}
		h = append(h, Hop{Link: NCU})
		data, err := h.Encode(width)
		if err != nil {
			return false
		}
		bits := len(h) * (width + 1)
		return len(data) == (bits+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

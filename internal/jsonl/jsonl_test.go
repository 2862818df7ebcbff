package jsonl

import (
	"strings"
	"testing"
)

type rec struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

func validRec(r *rec) error {
	if r.ID == 0 {
		return errZeroID
	}
	return nil
}

var errZeroID = &zeroIDError{}

type zeroIDError struct{}

func (*zeroIDError) Error() string { return "record without id" }

func TestDecodeCleanStream(t *testing.T) {
	in := "{\"id\":1,\"name\":\"a\"}\n\n{\"id\":2,\"name\":\"b\"}\n"
	got, skipped, err := Decode[rec](strings.NewReader(in), validRec)
	if err != nil || skipped != 0 {
		t.Fatalf("err=%v skipped=%d, want nil/0", err, skipped)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].Name != "b" {
		t.Fatalf("records = %+v", got)
	}
}

// TestDecodeTrailingPartial is the live-file regression test: a truncated
// final line (writer mid-append) is skipped and counted, not fatal.
func TestDecodeTrailingPartial(t *testing.T) {
	for _, tail := range []string{
		"{\"id\":3,\"na",            // torn mid-key
		"{\"id\":0,\"name\":\"x\"}", // parses but fails validation
		"{\"id\":3,\"na\nnot json either",
	} {
		in := "{\"id\":1}\n{\"id\":2}\n" + tail
		got, skipped, err := Decode[rec](strings.NewReader(in), validRec)
		if err != nil {
			t.Fatalf("tail %q: unexpected error %v", tail, err)
		}
		if len(got) != 2 {
			t.Fatalf("tail %q: %d records, want 2", tail, len(got))
		}
		wantSkipped := 1 + strings.Count(tail, "\n")
		if skipped != wantSkipped {
			t.Fatalf("tail %q: skipped = %d, want %d", tail, skipped, wantSkipped)
		}
	}
}

// TestDecodeInteriorCorruption: a bad line followed by a good one is real
// corruption and must fail, naming the bad line.
func TestDecodeInteriorCorruption(t *testing.T) {
	in := "{\"id\":1}\nnot json\n{\"id\":2}\n"
	_, _, err := Decode[rec](strings.NewReader(in), validRec)
	if err == nil {
		t.Fatal("interior corruption decoded without error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
}

func TestDecodeEmptyAndValidatorless(t *testing.T) {
	got, skipped, err := Decode[rec](strings.NewReader(""), nil)
	if err != nil || skipped != 0 || len(got) != 0 {
		t.Fatalf("empty stream: got=%v skipped=%d err=%v", got, skipped, err)
	}
	got, skipped, err = Decode[rec](strings.NewReader("{\"id\":0}\n"), nil)
	if err != nil || skipped != 0 || len(got) != 1 {
		t.Fatalf("validatorless: got=%v skipped=%d err=%v", got, skipped, err)
	}
}

package main

import (
	"bytes"
	"testing"

	"neo/internal/datagen"
	"neo/pkg/neo"
)

func testDB(t *testing.T) *neo.Database {
	t.Helper()
	db, err := datagen.Generate(datagen.Profile("imdb"), datagen.Config{Scale: 0.1, Seed: systemSeed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInputsAreSeededDistinctAndInterleavedBySize(t *testing.T) {
	db := testDB(t)
	a, err := generateInputs(db, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateInputs(db, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generateInputs(db, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("input %d differs between two generations with one seed", i)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 3 and 4 generated the same inputs")
	}
	seen := map[string]bool{}
	for i, in := range a {
		q, err := decodeQuery(in.body, db.Catalog)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if seen[q.ID] {
			t.Fatalf("input %d repeats signature %s", i, q.ID)
		}
		seen[q.ID] = true
		// Sizes 3..7 take turns while every size bucket still has queries.
		if want := 3 + i%5; i < 25 && len(q.Relations) != want {
			t.Fatalf("input %d has %d relations, want %d (sizes 3..7 interleaved)", i, len(q.Relations), want)
		}
	}
}

func TestDecodeQueryMatchesTheGeneratedQuery(t *testing.T) {
	db := testDB(t)
	ins, err := generateInputs(db, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		q, err := decodeQuery(in.body, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		if q.ID != q.Signature() {
			t.Fatalf("decoded query keyed %q, not on its signature", q.ID)
		}
		again := specFor(q)
		if len(again.Predicates) != len(in.spec.Predicates) || len(again.Joins) != len(in.spec.Joins) {
			t.Fatalf("round trip changed the query: %+v vs %+v", again, in.spec)
		}
	}
	if _, err := decodeQuery([]byte(`{"relations":["title"],"predicates":[{"column":"title","op":"=","value":1}]}`), db.Catalog); err == nil {
		t.Error("decodeQuery accepted a column reference without a table")
	}
	if _, err := decodeQuery([]byte(`{"relations":["nope"]}`), db.Catalog); err == nil {
		t.Error("decodeQuery accepted an unknown relation")
	}
}

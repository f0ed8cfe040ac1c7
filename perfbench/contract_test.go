package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheMetricTables pins the repository's
// BENCHMARK.json to what the program prints: the same metrics with the
// same units and directions, and only workloads the program knows.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

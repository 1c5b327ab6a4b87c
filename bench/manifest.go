package main

import (
	"encoding/json"
	"io"
)

// manifest mirrors BENCHMARK.json: exactly the keys the driver's contract
// lists, in its order.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// newManifest derives BENCHMARK.json from the tables in spec.go, so the file
// and the program cannot disagree on a name, a unit or a bound.
func newManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.name, e.unit, e.better, e.bound})
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{p.name, p.unit, p.better})
	}
	return m
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(newManifest())
}

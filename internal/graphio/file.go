package graphio

import (
	"bytes"
	"os"
	"strings"

	"fdiam/internal/graph"
)

// IsMETIS reports whether path names a METIS file (".metis" or ".graph").
// METIS is the one format the extension must decide: its "<n> <m>" header
// line reads as an edge, so content sniffing would parse it as an edge list.
func IsMETIS(path string) bool {
	return strings.HasSuffix(path, ".metis") || strings.HasSuffix(path, ".graph")
}

// ReadFile reads the graph file at path. METIS files (see IsMETIS) are
// parsed as METIS; every other file is sniffed by ReadAuto (binary CSR,
// Matrix Market, DIMACS, or plain edge list).
func ReadFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if IsMETIS(path) {
		return ReadMETIS(bytes.NewReader(data))
	}
	return ReadAuto(data)
}

// WriteFile writes g to path in the format its extension names: ".bin"
// binary CSR, ".mtx" Matrix Market, ".gr" DIMACS, ".metis"/".graph" METIS,
// anything else an edge list. ReadFile reads every one of them back.
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		err = WriteBinary(f, g)
	case strings.HasSuffix(path, ".mtx"):
		err = WriteMatrixMarket(f, g)
	case strings.HasSuffix(path, ".gr"):
		err = WriteDIMACS(f, g)
	case IsMETIS(path):
		err = WriteMETIS(f, g)
	default:
		err = WriteEdgeList(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

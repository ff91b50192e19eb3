package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// graphInfo is one input's line in the manifest.
type graphInfo struct {
	Name     string  `json:"name"`
	Class    string  `json:"class"`
	Set      int     `json:"set"`
	Vertices int     `json:"vertices"`
	Arcs     int64   `json:"arcs"`
	CSRMiB   float64 `json:"csr_mib"`
	Diameter int32   `json:"reference_diameter"`
	Infinite bool    `json:"infinite"`
}

// manifest records the environment and inputs of one run, so two outputs
// can be told apart without the machine that made them.
type manifest struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Trace      bool        `json:"trace"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Mismatch   bool        `json:"gomaxprocs_differs_from_nproc"`
	GoVersion  string      `json:"go_version"`
	LLC        string      `json:"llc"`
	Graphs     []graphInfo `json:"graphs"`
}

func newManifest(workload string, seed uint64, trace bool) *manifest {
	m := &manifest{Workload: workload, Seed: seed, Trace: trace, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LLC: llcSize()}
	m.Mismatch = m.NProc != m.GOMAXPROCS
	return m
}

func (m *manifest) addGraphs(set int, insts []*instance) {
	for _, in := range insts {
		m.Graphs = append(m.Graphs, graphInfo{Name: in.name, Class: in.class, Set: set,
			Vertices: in.g.NumVertices(), Arcs: in.g.NumArcs(), CSRMiB: csrMiB(in.g),
			Diameter: in.ref, Infinite: in.infinite})
	}
}

// write prints the manifest as one line, with a warning line first when
// GOMAXPROCS does not match the CPUs the process may use: such a run does
// not measure the parallel layers the host has.
func (m *manifest) write(w io.Writer) error {
	if m.Mismatch {
		fmt.Fprintf(w, "WARNING: GOMAXPROCS=%d but nproc=%d; parallel numbers do not describe this host\n",
			m.GOMAXPROCS, m.NProc)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "manifest %s\n", b)
	return err
}

// llcSize reads the size of the highest cache level of CPU 0 from sysfs,
// or "unknown".
func llcSize() string {
	best, size := -1, "unknown"
	for i := range 8 {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			continue
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		var level int
		if _, err := fmt.Sscan(string(lv), &level); err == nil && level > best {
			best, size = level, fmt.Sprintf("L%d %s", level, strings.TrimSpace(string(sz)))
		}
	}
	return size
}

// peakRSSMiB is the process's peak resident set since start or since the
// last resetPeakRSS: VmHWM from /proc/self/status, or getrusage's maxrss
// where /proc is not readable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscan(rest, &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns freed heap to the system and resets VmHWM to the
// current resident set, so a later peakRSSMiB covers only what runs after
// it, not set-up's generator temporaries. It reports whether the kernel
// took the reset; without it the later reading still includes set-up.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// resetNote describes what a peak read after resetPeakRSS covers.
func resetNote(reset bool, after string) string {
	if !reset {
		return "VmHWM not resettable here, so set-up included; " + after
	}
	return "VmHWM reset after set-up and warm-up; " + after
}

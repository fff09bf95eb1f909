package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/rng"
)

// hostLine identifies the host and the build, so figures can be compared
// across hosts and commits.
func hostLine() string {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return fmt.Sprintf("hdbench host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mix is the splitmix64 finalizer: distinct seeds give unrelated streams.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// encoderRNG and shuffleRNG are the random streams of a run's base
// hypervectors and of its training-order shuffles.
func encoderRNG(seed uint64) *rng.RNG { return rng.New(mix(seed ^ 0xE4C0DE)) }

func shuffleRNG(seed uint64) *rng.RNG { return rng.New(mix(seed ^ 0xF17)) }

// generate draws rows samples of the catalog dataset name with the data
// seed derived from the run seed: same seed, same inputs.
func generate(name string, rows int, seed uint64) (*dataset.Dataset, error) {
	spec, err := dataset.CatalogSpec(name)
	if err != nil {
		return nil, err
	}
	spec.Seed ^= mix(seed)
	return dataset.Generate(spec, rows)
}

// split returns rows [lo, hi) of ds as a dataset of their own.
func split(ds *dataset.Dataset, lo, hi int) *dataset.Dataset {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return ds.Subset(idx)
}

// heapLiveMiB forces a collection and returns the live heap in MiB. The
// second collection frees what the first left behind: objects allocated
// while it marked, and sync.Pool victim caches.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter measures heap bytes and objects allocated between start and
// stop.
type allocMeter struct{ bytes, objects uint64 }

func (m *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.bytes, m.objects = ms.TotalAlloc, ms.Mallocs
}

// stop returns the bytes and objects allocated since start.
func (m *allocMeter) stop() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.bytes, ms.Mallocs - m.objects
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and the last set-up serves the measured phase.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times, releasing all but the last,
// and returns the median wall time with the last set-up's value.
func timeSetups[T any](setup func() (T, error), release func(T)) (float64, T, error) {
	var last T
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(last)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		last = v
	}
	return quantile(walls, 0.5), last, nil
}

// Command bench is the repository's end-to-end benchmark: it brings the real
// system up in-process (serve.Server behind a loopback http.Server, the
// store on the real filesystem, real dispatch backends), drives it only
// through the public sweep API, and reports what a user waits for — a sweep —
// plus where that time goes, layer by layer. See README.md in this directory
// for every workload and metric.
//
//	bash bench/run.sh                                  # all workloads, end-to-end metrics
//	bash bench/run.sh --workload ctl_drain --trace 1   # one workload, per-layer metrics
//	bash bench/run.sh -aa                              # two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// lapSeconds is the nominal length of one lap (set-up + timed part) on the
// reference host; --seconds buys seconds/lapSeconds laps. Work per lap is
// fixed, so the same --seconds always runs the same work.
const lapSeconds = 4

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output, in the driver's shape.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings shared by every mode.
type options struct {
	seed   uint64
	laps   int
	trace  bool
	root   string // temp root for lap directories
	outDir string // traces and reports
	sz     sizes
	logf   func(format string, args ...any)
}

func printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (table_cold, cnn_cold, ctl_drain, warm_reads); empty runs all")
		seed         = flag.Uint64("seed", 1, "workload seed: feeds the sweep seed axis and every permutation")
		seconds      = flag.Int("seconds", 24, "nominal measuring time; buys seconds/4 laps of fixed work")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
		dir          = flag.String("dir", "", "temp root for lap directories (default .bench_build/tmp)")
		allowTmpfs   = flag.Bool("allow-tmpfs", false, "accept a -dir on tmpfs (fsync cost is part of ctl_drain)")
		aa           = flag.Bool("aa", false, "A/A self-check: two full sets on this binary, fail if a median moves by more than its bound")
		smoke        = flag.Bool("smoke", false, "1 lap of tiny constants per workload, traced lap included")
		updateGolden = flag.Bool("update-golden", false, "record bench/golden.json from the local backend at the default seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}

	opt := options{seed: *seed, trace: *trace != 0, sz: fullSizes, outDir: filepath.Join("bench", "out"), logf: printf}
	opt.laps = max(1, *seconds/lapSeconds)
	if *smoke {
		opt.sz, opt.laps = smokeSizes, 1
	}
	root, err := tempRoot(*dir, *allowTmpfs)
	if err != nil {
		fatalf("%v", err)
	}
	opt.root = root
	host := hostInfo(root)
	opt.logf("host: %s", host)
	if host.GOMAXPROCS > host.NProc {
		opt.logf("warning: GOMAXPROCS %d > nproc %d: goroutines will time-share cores", host.GOMAXPROCS, host.NProc)
	}

	var names []string
	if *workloadName != "" {
		names = []string{*workloadName}
	} else {
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}

	switch {
	case *updateGolden:
		if err := recordGolden(opt); err != nil {
			fatalf("%v", err)
		}
	case *aa:
		if !runAA(opt, names) {
			os.Exit(1)
		}
	default:
		ok := true
		for _, name := range names {
			w, err := workloadByName(name)
			if err != nil {
				fatalf("%v", err)
			}
			rep, err := runWorkload(opt, w)
			if err != nil {
				fatalf("%v", err)
			}
			line, err := json.Marshal(rep)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(string(line))
			ok = ok && rep.Correct
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// hostBlock records what the numbers were measured on.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
}

func (h hostBlock) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s temp_fs=%s", h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.TempFS)
}

func hostInfo(tempRoot string) hostBlock {
	h := hostBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), TempFS: fsType(tempRoot)}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// fsType names the filesystem holding path (by statfs magic).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// tempRoot creates the directory lap directories live under. The default is
// inside the checkout (the benchmark may write nowhere else) and is used
// whatever filesystem that is, with the type recorded in the host block; a
// -dir the caller chose is refused on tmpfs, where the fsyncs ctl_drain
// measures cost nothing.
func tempRoot(dir string, allowTmpfs bool) (string, error) {
	explicit := dir != ""
	if !explicit {
		dir = filepath.Join(".bench_build", "tmp")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if explicit && !allowTmpfs && fsType(dir) == "tmpfs" {
		return "", fmt.Errorf("-dir %s is on tmpfs; pass -allow-tmpfs to measure without real fsyncs", dir)
	}
	return dir, nil
}

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo is stamped on every output record so trajectories from different
// hosts are not compared as if they were one.
type hostInfo struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	FsyncProbeUs float64 `json:"fsync_probe_us"`
	// Note says loudly what this host cannot measure.
	Note string `json:"note,omitempty"`
}

func fingerprint(workDir string) (hostInfo, error) {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // the driver's checkout is not a git repository
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	us, err := fsyncProbe(workDir, 32)
	if err != nil {
		return h, err
	}
	h.FsyncProbeUs = us
	if h.NProc < 4 {
		h.Note = fmt.Sprintf("ONLY %d CPUs: traffic.replay_quiet_mpps_wN is a %d-worker number, not a scaling result",
			h.NProc, h.NProc)
	}
	return h, nil
}

// fsyncProbe is the median latency of appending 256 bytes to a file in dir
// and fsyncing it: the floor under every durable commit on this host.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBinaries compiles the programs under test from the checkout at root
// into dir. The build is never timed.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/sectord", "./cmd/sectorproxy", "./cmd/sectorpack")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build programs under test: %v\n%s", err, out.String())
	}
	return nil
}

// server is one sectord or sectorproxy child process listening on a port
// the kernel picked.
type server struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has exited and its output is logged
}

// listenRE matches the address the programs log once they listen.
var listenRE = regexp.MustCompile(`msg=listening url=(http://\S+)`)

// startServer launches bin with args and returns as soon as the process
// logs its listen address; its output goes to a log in dir. The child is
// killed if the benchmark dies first.
func startServer(dir, name, bin string, args ...string) (*server, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = pw, pw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close() // the child has its own copy; ours would keep the pipe open
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, exited: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		// Log every line until the child exits, which closes the pipe.
		br := bufio.NewReader(pr)
		for listening := false; ; {
			line, err := br.ReadBytes('\n')
			logf.Write(line)
			if m := listenRE.FindSubmatch(line); m != nil && !listening {
				listening = true
				urls <- string(m[1])
			}
			if err != nil {
				break
			}
		}
		pr.Close()
		cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	select {
	case s.url = <-urls:
		return s, nil
	case <-s.exited:
		out, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, out)
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within 20s", name)
	}
}

// stop sends SIGTERM, which drains and flushes state, and waits for the
// process to exit; after 15s it kills it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procMB reads a memory field of /proc/<pid>/status, such as "VmRSS", in
// MB.
func procMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s of pid %d: %w", field, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// procCPU returns the CPU time process pid has run, summed over its threads'
// /proc/<pid>/task/<tid>/schedstat. It leaves out the time the hypervisor
// gave the CPU to other guests (steal), which wall time counts: on a shared
// host that time comes and goes by the second, and a measure that includes
// it does not repeat. A thread that has exited takes its time with it; the
// Go programs measured here keep theirs.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// serversCPU sums procCPU over the servers.
func serversCPU(servers []*server) (time.Duration, error) {
	var sum time.Duration
	for _, s := range servers {
		cpu, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("CPU time of %s: %w", s.name, err)
		}
		sum += cpu
	}
	return sum, nil
}

// rssEvery is how often an rssSampler reads the servers' memory.
const rssEvery = 50 * time.Millisecond

// rssSampler records the summed resident memory of the servers every
// rssEvery until stopped. The high-water mark would be simpler, but it is
// one extreme sample, and it moves by a fifth between identical runs.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64 // written by the sampling goroutine until done is closed
	err        error
}

func sampleRSS(servers []*server) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			var sum float64
			for _, s := range servers {
				mb, err := procMB(s.cmd.Process.Pid, "VmRSS")
				if err != nil {
					r.err = err
					return
				}
				sum += mb
			}
			r.mb = append(r.mb, sum)
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// median stops the sampler and returns its median sample.
func (r *rssSampler) median() (float64, error) {
	close(r.stop)
	<-r.done
	return median(r.mb), r.err
}

// awaitHealthy polls GET /healthz until it answers 200.
func awaitHealthy(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopAll stops every server, the proxy first.
func stopAll(servers []*server) {
	for i := len(servers) - 1; i >= 0; i-- {
		servers[i].stop()
	}
}

// fsType names the filesystem dir lives on, so a run whose fsyncs are free
// (tmpfs) is visible in its header.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

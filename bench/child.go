package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/teastore"
)

// The stack under test runs in a child process (this binary re-executed
// with -serve), so its CPU and memory are read from /proc/<pid> and are
// never mixed with the generator's. Parent and child talk over the
// child's stdin/stdout in JSON lines; a closed stdin tells the child to
// exit, which also covers a parent that died without saying goodbye.

// hello is the child's first line: where each service instance listens.
type hello struct {
	Instances []instance `json:"instances"`
}

type instance struct {
	Service string `json:"service"`
	URL     string `json:"url"`
}

// audit is the child's answer to an "audit" line, taken after
// Cluster.Flush so every acked order has been applied.
type audit struct {
	Orders   int  `json:"orders"`
	Distinct bool `json:"distinct"`
}

// serve is the child side: boot the workload's stack, announce it, answer
// audits until stdin closes.
func serve(workloadName string) error {
	wl := findWorkload(workloadName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	st, err := teastore.Start(wl.stack())
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		st.Shutdown(ctx)
	}()
	var h hello
	for _, in := range st.Instances() {
		h.Instances = append(h.Instances, instance{Service: in.Service, URL: in.URL})
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(h); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "audit" {
			return fmt.Errorf("unknown command %q", in.Text())
		}
		cluster := st.PersistenceCluster()
		cluster.Flush()
		orders := cluster.AllOrders()
		seen := make(map[int64]bool, len(orders))
		for _, o := range orders {
			seen[o.ID] = true
		}
		if err := out.Encode(audit{Orders: len(orders), Distinct: len(seen) == len(orders)}); err != nil {
			return err
		}
	}
	return in.Err()
}

// stack is the parent's handle on one running child.
type stack struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	lines     *bufio.Reader
	instances []instance
	webui     string
}

// spawn starts a child for the workload and waits for its hello.
func spawn(ctx context.Context, wl *workload) (*stack, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", wl.name)
	cmd.Stderr = os.Stderr
	// Belt and braces with the stdin protocol: the kernel kills the child
	// if this process dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &stack{cmd: cmd, stdin: stdin, lines: bufio.NewReader(stdout)}
	var h hello
	if err := s.readLine(ctx, &h); err != nil {
		s.stop()
		return nil, fmt.Errorf("waiting for the stack to boot: %w", err)
	}
	s.instances = h.Instances
	for _, in := range h.Instances {
		if in.Service == "webui" {
			s.webui = in.URL
		}
	}
	if s.webui == "" {
		s.stop()
		return nil, fmt.Errorf("the stack announced no webui")
	}
	return s, nil
}

// readLine decodes the child's next line, giving up when ctx ends.
func (s *stack) readLine(ctx context.Context, v any) error {
	type result struct {
		line []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		line, err := s.lines.ReadBytes('\n')
		ch <- result{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		return json.Unmarshal(r.line, v)
	case <-ctx.Done():
		// The reader goroutine ends when stop closes the child's stdout.
		return ctx.Err()
	}
}

// audit flushes the child's order plane and reports what is stored.
func (s *stack) audit(ctx context.Context) (audit, error) {
	var a audit
	if _, err := io.WriteString(s.stdin, "audit\n"); err != nil {
		return a, err
	}
	err := s.readLine(ctx, &a)
	return a, err
}

// urls lists the base URLs of one service's instances.
func (s *stack) urls(service string) []string {
	var out []string
	for _, in := range s.instances {
		if in.Service == service {
			out = append(out, in.URL)
		}
	}
	return out
}

// stop ends the child and reaps it: stdin closes (the polite request),
// then the process is killed if it has not gone within two seconds.
func (s *stack) stop() {
	s.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped child carries no news
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// kill ends the child at once; for set-up repetitions nobody audits.
func (s *stack) kill() {
	_ = s.cmd.Process.Kill()
	s.stop()
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports; /proc/<pid>/stat counts CPU time in these ticks.
const clockTick = 100

// cpuSeconds reads the child's user+system CPU time.
func (s *stack) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after it.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMiB reads the child's resident-set high-water mark.
func (s *stack) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

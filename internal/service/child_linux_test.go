//go:build linux

package service

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL cmd's process when the test
// binary that started it dies, so a timed-out or killed `go test`
// leaves no crash-test child running.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

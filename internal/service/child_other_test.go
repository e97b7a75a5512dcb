//go:build !linux

package service

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal; see child_linux_test.go.
func dieWithParent(*exec.Cmd) {}

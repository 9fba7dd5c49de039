//go:build !linux

package main

import "runtime"

func kernelRelease() string { return runtime.GOOS }

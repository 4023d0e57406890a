package main

import (
	"errors"
	"io"
	"syscall"
	"unsafe"
)

// The benchmark's client shares its process, and so its Go heap, with the
// servers it measures. The garbage collector paces itself on the live heap,
// so megabytes of request pool and retained responses would make fepiad
// collect far less often than it does alone. Request bodies, response
// bodies and op records therefore live in anonymous mappings outside the Go
// heap. They are never unmapped: they live as long as the process.

// offHeap returns an empty slice with room for n values of T in an
// anonymous mapping; pages are only backed once written. T must hold no
// pointers into the Go heap (the collector does not scan the mapping);
// pointers into other mappings are fine.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0], nil
}

// arena is append-only byte storage outside the Go heap.
type arena struct{ mem []byte }

// arenaBytes is one arena's reserved size.
const arenaBytes = 1 << 30

var errArenaFull = errors.New("perfbench: arena full")

func newArena() (*arena, error) {
	mem, err := offHeap[byte](arenaBytes)
	if err != nil {
		return nil, err
	}
	return &arena{mem: mem}, nil
}

// add copies b into the arena.
func (a *arena) add(b []byte) ([]byte, error) {
	n := len(a.mem)
	if cap(a.mem)-n < len(b) {
		return nil, errArenaFull
	}
	a.mem = append(a.mem, b...)
	return a.mem[n:len(a.mem):len(a.mem)], nil
}

// readFrom reads r to EOF into the arena.
func (a *arena) readFrom(r io.Reader) ([]byte, error) {
	n := len(a.mem)
	for {
		if len(a.mem) == cap(a.mem) {
			return nil, errArenaFull
		}
		k, err := r.Read(a.mem[len(a.mem):cap(a.mem)])
		a.mem = a.mem[:len(a.mem)+k]
		if err == io.EOF {
			return a.mem[n:len(a.mem):len(a.mem)], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

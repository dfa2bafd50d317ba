// Package faultfs is a minimized copy of the repository's filesystem seam
// for the fsyncorder fixtures: the same interface names, and a
// WriteFileAtomic with the temp, write, Sync, Rename shape.
package faultfs

import "io"

// File is the writable-handle seam.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam.
type FS interface {
	Create(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	OpenFile(name string, flag int) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// WriteFileAtomic is the atomic-replace sink: temp, write, fsync, rename.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(".", path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(f.Name())
		return err
	}
	return fsys.Rename(f.Name(), path)
}

// Binary persistence for encoded prompt modules.
//
// A serving process encodes a schema's modules once; persisting them lets a
// restarted (or scaled-out) server skip re-encoding entirely — the offline
// half of the paper's deployment story. The format is a little-endian
// stream of (key, EncodedModule) records with a magic header and a per-
// record FNV-1a checksum; corrupt or truncated files fail loudly with
// pc::Error rather than loading partial state silently.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "core/encoded_module.h"

namespace pc {

// Serializes one record. Throws pc::Error on stream failure.
void write_module_record(std::ostream& os, const std::string& key,
                         const EncodedModule& module);

// Reads the next record. Returns false at a clean end-of-stream; throws
// pc::Error on malformed input or checksum mismatch.
bool read_module_record(std::istream& is, std::string* key,
                        EncodedModule* module);

// Recovery: clears the stream's error state and scans forward to the next
// record-tag boundary, so a reader can skip a corrupt or truncated record
// and resume. Returns false when end-of-stream is reached first. The
// resynced record is still checksum-verified by read_module_record, so a
// false tag match inside corrupt payload bytes cannot load bad state.
bool resync_to_next_record(std::istream& is);

// File header handling: call before the first record on each side.
void write_store_header(std::ostream& os);
void read_store_header(std::istream& is);

// Crash-atomic store-file writer: writes the header, then whatever
// `write_records` writes, into `path + ".tmp"`, flushes, and renames over
// `path` only on success — a crash (or write fault) mid-write leaves at
// most a stray .tmp behind, never a partial file at `path`, and a failure
// leaves whatever was at `path` untouched. Throws pc::Error on any I/O
// failure and rethrows what `write_records` throws, removing the .tmp
// first. PromptCacheEngine::save_modules writes a whole store with it.
void write_store_file(const std::string& path,
                      const std::function<void(std::ostream&)>& write_records);

// One record through write_store_file: the disk tier's spill files.
void write_module_file(const std::string& path, const std::string& key,
                       const EncodedModule& module);

// Reads back a file written by write_module_file. Throws pc::Error on open
// failure, corruption, truncation, or when the stored key differs from
// `expected_key`.
EncodedModule read_module_file(const std::string& path,
                               const std::string& expected_key);

}  // namespace pc

/**
 * @file
 * ByteSource: a restartable stream of bytes backing the trace-reader
 * frontend (docs/traces.md).
 *
 * The frontend replays multi-GB captured traces with bounded memory,
 * so the byte layer never loads a file whole: every implementation
 * hands out bytes from a fixed-size internal buffer. Compressed inputs
 * (`.gz`, `.xz`) decompress transparently in-process through zlib /
 * liblzma, and `reopen()` restarts the stream from byte 0, which is
 * what makes a StreamWorkload's reset()/clone()/checkpoint-replay
 * contract work on a forward-only decompressor.
 */
#ifndef TRIAGE_FRONTEND_BYTE_SOURCE_HPP
#define TRIAGE_FRONTEND_BYTE_SOURCE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace triage::frontend {

/** A restartable, forward-readable byte stream. */
class ByteSource
{
  public:
    explicit ByteSource(std::string path) : path_(std::move(path)) {}
    virtual ~ByteSource() = default;

    ByteSource(const ByteSource&) = delete;
    ByteSource& operator=(const ByteSource&) = delete;

    /**
     * Read up to @p n bytes into @p p.
     * @return bytes produced; 0 means end-of-stream or error (an
     *         error warns once, naming the file).
     */
    virtual std::size_t read(void* p, std::size_t n) = 0;

    /** Restart from byte 0. @return false if the reopen failed. */
    virtual bool reopen() = 0;

    /**
     * Total stream length in bytes when cheaply knowable (raw files:
     * one fseek/ftell at open). Compressed sources return nullopt — their decompressed size is not known up front.
     */
    virtual std::optional<std::uint64_t> size_bytes() const
    {
        return std::nullopt;
    }

    /**
     * Jump to absolute byte offset @p off. Only raw files support
     * this; decompressors are forward-only and return false (callers
     * fall back to sequential reads).
     */
    virtual bool seek(std::uint64_t off)
    {
        (void)off;
        return false;
    }

    const std::string& path() const { return path_; }

  protected:
    std::string path_;
};

/**
 * Open @p path as a byte stream, decompressing by file extension:
 * `.gz` through zlib, `.xz` through liblzma, anything else raw.
 * @return null (with a warning) when the file cannot be opened.
 */
std::unique_ptr<ByteSource> open_byte_source(const std::string& path);

/**
 * Read exactly @p n bytes. @return false on a short read (EOF or
 * error), in which case the stream position is unspecified.
 */
bool read_exact(ByteSource& src, void* p, std::size_t n);

} // namespace triage::frontend

#endif // TRIAGE_FRONTEND_BYTE_SOURCE_HPP

#include "frontend/byte_source.hpp"

#include <cstdio>
#include <cstring>
#include <vector>

#include <lzma.h>
#include <zlib.h>

#include "util/log.hpp"

namespace triage::frontend {

namespace {

bool
has_suffix(const std::string& s, const char* suf)
{
    const std::size_t n = std::strlen(suf);
    return s.size() >= n && s.compare(s.size() - n, n, suf) == 0;
}

// ---------------------------------------------------------------------
// Raw file

class RawFileSource final : public ByteSource
{
  public:
    explicit RawFileSource(std::string path) : ByteSource(std::move(path))
    {
        open();
    }

    ~RawFileSource() override
    {
        if (f_ != nullptr)
            std::fclose(f_);
    }

    bool ok() const { return f_ != nullptr; }

    std::size_t
    read(void* p, std::size_t n) override
    {
        if (f_ == nullptr)
            return 0;
        std::size_t got = std::fread(p, 1, n, f_);
        if (got < n && std::ferror(f_) != 0) {
            util::warn("trace frontend: read error in " + path_);
            std::fclose(f_);
            f_ = nullptr;
        }
        return got;
    }

    bool
    reopen() override
    {
        if (f_ != nullptr && std::fseek(f_, 0, SEEK_SET) == 0) {
            std::clearerr(f_);
            return true;
        }
        if (f_ != nullptr) {
            std::fclose(f_);
            f_ = nullptr;
        }
        open();
        return f_ != nullptr;
    }

    std::optional<std::uint64_t>
    size_bytes() const override
    {
        return size_;
    }

    bool
    seek(std::uint64_t off) override
    {
        if (f_ == nullptr)
            return false;
        return std::fseek(f_, static_cast<long>(off), SEEK_SET) == 0;
    }

  private:
    void
    open()
    {
        f_ = std::fopen(path_.c_str(), "rb");
        size_.reset();
        if (f_ == nullptr)
            return;
        if (std::fseek(f_, 0, SEEK_END) == 0) {
            long end = std::ftell(f_);
            if (end >= 0)
                size_ = static_cast<std::uint64_t>(end);
        }
        std::fseek(f_, 0, SEEK_SET);
    }

    std::FILE* f_ = nullptr;
    std::optional<std::uint64_t> size_;
};

// ---------------------------------------------------------------------
// zlib

class GzSource final : public ByteSource
{
  public:
    explicit GzSource(std::string path) : ByteSource(std::move(path))
    {
        open();
    }

    ~GzSource() override
    {
        if (gz_ != nullptr)
            gzclose(gz_);
    }

    bool ok() const { return gz_ != nullptr; }

    std::size_t
    read(void* p, std::size_t n) override
    {
        if (gz_ == nullptr)
            return 0;
        int got = gzread(gz_, p, static_cast<unsigned>(n));
        if (got < 0 || static_cast<std::size_t>(got) < n) {
            // Short read: distinguish clean EOF from a truncated or
            // corrupt member (gzread reports those via gzerror). An
            // error ends the stream, so it warns once.
            int errnum = Z_OK;
            const char* msg = gzerror(gz_, &errnum);
            if (errnum != Z_OK && errnum != Z_STREAM_END) {
                util::warn(util::format_msg("trace frontend: gzip error ",
                                            errnum, " (", msg, ") in ",
                                            path_));
                gzclose(gz_);
                gz_ = nullptr;
            }
        }
        return got < 0 ? 0 : static_cast<std::size_t>(got);
    }

    bool
    reopen() override
    {
        if (gz_ != nullptr && gzrewind(gz_) == 0)
            return true;
        if (gz_ != nullptr) {
            gzclose(gz_);
            gz_ = nullptr;
        }
        open();
        return gz_ != nullptr;
    }

  private:
    void
    open()
    {
        gz_ = gzopen(path_.c_str(), "rb");
        if (gz_ != nullptr)
            gzbuffer(gz_, 1 << 17);
    }

    gzFile gz_ = nullptr;
};

// ---------------------------------------------------------------------
// liblzma

class XzSource final : public ByteSource
{
  public:
    explicit XzSource(std::string path) : ByteSource(std::move(path))
    {
        open();
    }

    ~XzSource() override { close(); }

    bool ok() const { return f_ != nullptr; }

    std::size_t
    read(void* p, std::size_t n) override
    {
        if (f_ == nullptr)
            return 0;
        bool failed = false;
        strm_.next_out = static_cast<std::uint8_t*>(p);
        strm_.avail_out = n;
        while (strm_.avail_out > 0 && !done_) {
            if (strm_.avail_in == 0 && !eof_in_) {
                std::size_t got = std::fread(in_.data(), 1, in_.size(),
                                             f_);
                if (got < in_.size()) {
                    if (std::ferror(f_) != 0) {
                        failed = true;
                        util::warn("trace frontend: read error in " +
                                   path_);
                        break;
                    }
                    eof_in_ = true;
                }
                strm_.next_in = in_.data();
                strm_.avail_in = got;
            }
            lzma_ret rc = lzma_code(&strm_, eof_in_ ? LZMA_FINISH
                                                    : LZMA_RUN);
            if (rc == LZMA_STREAM_END) {
                done_ = true;
            } else if (rc != LZMA_OK) {
                failed = true;
                util::warn(util::format_msg(
                    "trace frontend: xz decode error ",
                    static_cast<int>(rc), " in ", path_));
                break;
            } else if (eof_in_ && strm_.avail_in == 0 &&
                       strm_.avail_out > 0 && !done_) {
                // Input exhausted mid-stream: truncated archive.
                failed = true;
                util::warn("trace frontend: truncated xz stream in " +
                           path_);
                break;
            }
        }
        const std::size_t produced = n - strm_.avail_out;
        if (failed)
            close(); // an error ends the stream: later reads return 0
        return produced;
    }

    bool
    reopen() override
    {
        close();
        open();
        return f_ != nullptr;
    }

  private:
    void
    open()
    {
        done_ = false;
        eof_in_ = false;
        in_.resize(1 << 16);
        f_ = std::fopen(path_.c_str(), "rb");
        if (f_ == nullptr)
            return;
        strm_ = LZMA_STREAM_INIT;
        if (lzma_stream_decoder(&strm_, UINT64_MAX,
                                LZMA_CONCATENATED) != LZMA_OK) {
            std::fclose(f_);
            f_ = nullptr;
        }
    }

    void
    close()
    {
        if (f_ != nullptr) {
            lzma_end(&strm_);
            std::fclose(f_);
            f_ = nullptr;
        }
    }

    std::FILE* f_ = nullptr;
    lzma_stream strm_ = LZMA_STREAM_INIT;
    std::vector<std::uint8_t> in_;
    bool eof_in_ = false;
    bool done_ = false;
};

template <typename T>
std::unique_ptr<ByteSource>
checked(std::unique_ptr<T> src)
{
    if (!src->ok()) {
        util::warn("trace frontend: cannot open " + src->path());
        return nullptr;
    }
    return src;
}

} // namespace

std::unique_ptr<ByteSource>
open_byte_source(const std::string& path)
{
    if (has_suffix(path, ".gz"))
        return checked(std::make_unique<GzSource>(path));
    if (has_suffix(path, ".xz"))
        return checked(std::make_unique<XzSource>(path));
    return checked(std::make_unique<RawFileSource>(path));
}

bool
read_exact(ByteSource& src, void* p, std::size_t n)
{
    std::size_t done = 0;
    auto* bytes = static_cast<std::uint8_t*>(p);
    while (done < n) {
        std::size_t got = src.read(bytes + done, n - done);
        if (got == 0)
            return false;
        done += got;
    }
    return true;
}

} // namespace triage::frontend

#include "frontend/decoder.hpp"

#include <cstring>

#include "util/log.hpp"
#include "workloads/trace_io.hpp"

namespace triage::frontend {

namespace {

bool
has_suffix(const std::string& s, const char* suf)
{
    const std::size_t n = std::strlen(suf);
    return s.size() >= n && s.compare(s.size() - n, n, suf) == 0;
}

// ---------------------------------------------------------------------
// Native .tria

class TriaDecoder final : public TraceDecoder
{
  public:
    bool
    begin(ByteSource& src) override
    {
        std::uint8_t header[workloads::TRACE_HEADER_BYTES];
        if (!read_exact(src, header, sizeof(header))) {
            util::warn("trace frontend: truncated tria header in " +
                       src.path());
            return false;
        }
        std::uint32_t magic = 0;
        std::uint32_t version = 0;
        std::memcpy(&magic, header, 4);
        std::memcpy(&version, header + 4, 4);
        std::memcpy(&count_, header + 8, 8);
        if (magic != workloads::TRACE_MAGIC ||
            version != workloads::TRACE_VERSION) {
            util::warn("trace frontend: bad tria magic/version in " +
                       src.path());
            return false;
        }
        // With a knowable stream length (raw files), the header count
        // must agree with the bytes actually present — a forged or
        // corrupt count is rejected here instead of trusted anywhere.
        if (auto sz = src.size_bytes()) {
            const std::uint64_t body =
                *sz >= workloads::TRACE_HEADER_BYTES
                    ? *sz - workloads::TRACE_HEADER_BYTES
                    : 0;
            if (body % workloads::TRACE_RECORD_BYTES != 0 ||
                body / workloads::TRACE_RECORD_BYTES != count_) {
                util::warn(util::format_msg(
                    "trace frontend: tria header count ", count_,
                    " disagrees with file size ", *sz, " in ",
                    src.path()));
                return false;
            }
        }
        pos_ = 0;
        return true;
    }

    bool
    next(ByteSource& src, sim::TraceRecord& out) override
    {
        if (pos_ >= count_)
            return false;
        workloads::PackedTraceRecord rec;
        if (!read_exact(src, &rec, sizeof(rec))) {
            util::warn(util::format_msg(
                "trace frontend: tria trace truncated at record ", pos_,
                " of ", count_, " in ", src.path()));
            pos_ = count_; // poison: do not retry the torn record
            return false;
        }
        if (!workloads::unpack_trace_record(rec, out)) {
            util::warn(util::format_msg(
                "trace frontend: unknown flags bits 0x",
                static_cast<unsigned>(rec.flags), " at record ", pos_,
                " in ", src.path(),
                " (written by a newer format revision?)"));
            pos_ = count_;
            return false;
        }
        ++pos_;
        return true;
    }

    bool
    fast_skip(ByteSource& src, std::uint64_t n,
              std::uint64_t& skipped) override
    {
        const std::uint64_t take = std::min(n, count_ - pos_);
        const std::uint64_t target =
            workloads::TRACE_HEADER_BYTES +
            (pos_ + take) * workloads::TRACE_RECORD_BYTES;
        if (!src.seek(target))
            return false;
        pos_ += take;
        skipped = take;
        return true;
    }

    std::uint64_t total_records() const override { return count_; }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t pos_ = 0;
};

// ---------------------------------------------------------------------
// ChampSim input_instr

#pragma pack(push, 1)
struct ChampSimInstr {
    std::uint64_t ip;
    std::uint8_t is_branch;
    std::uint8_t branch_taken;
    std::uint8_t destination_registers[2];
    std::uint8_t source_registers[4];
    std::uint64_t destination_memory[2];
    std::uint64_t source_memory[4];
};
#pragma pack(pop)
static_assert(sizeof(ChampSimInstr) == 64, "input_instr layout");

class ChampSimDecoder final : public TraceDecoder
{
  public:
    bool
    begin(ByteSource&) override
    {
        // Headerless format: nothing to validate up front.
        pending_count_ = 0;
        pending_pos_ = 0;
        nonmem_ = 0;
        instrs_ = 0;
        return true;
    }

    bool
    next(ByteSource& src, sim::TraceRecord& out) override
    {
        while (pending_pos_ == pending_count_) {
            ChampSimInstr in;
            std::size_t got = src.read(&in, sizeof(in));
            if (got == 0)
                return false; // clean EOF
            if (got < sizeof(in)) {
                if (!read_exact(src,
                                reinterpret_cast<std::uint8_t*>(&in) +
                                    got,
                                sizeof(in) - got)) {
                    util::warn(util::format_msg(
                        "trace frontend: champsim trace truncated "
                        "mid-instruction after ",
                        instrs_, " instructions in ", src.path()));
                    return false;
                }
            }
            ++instrs_;
            decode(in);
        }
        out = pending_[pending_pos_++];
        return true;
    }

  private:
    void
    decode(const ChampSimInstr& in)
    {
        pending_count_ = 0;
        pending_pos_ = 0;
        // Loads first, then stores, each in operand order — the order
        // a real pipeline would issue them for one instruction.
        for (std::uint64_t addr : in.source_memory) {
            if (addr != 0)
                pending_[pending_count_++] = {in.ip, addr, false, 0, 0};
        }
        for (std::uint64_t addr : in.destination_memory) {
            if (addr != 0)
                pending_[pending_count_++] = {in.ip, addr, true, 0, 0};
        }
        if (pending_count_ == 0) {
            // Non-memory instruction (branches included): it paces the
            // core model through the next record's nonmem_before.
            if (nonmem_ < 255)
                ++nonmem_;
            return;
        }
        pending_[0].nonmem_before = nonmem_;
        nonmem_ = 0;
    }

    sim::TraceRecord pending_[6];
    std::uint32_t pending_count_ = 0;
    std::uint32_t pending_pos_ = 0;
    std::uint8_t nonmem_ = 0;
    std::uint64_t instrs_ = 0;
};

// ---------------------------------------------------------------------
// Minimal Scarab-style memtrace

#pragma pack(push, 1)
struct MemtraceRecord {
    std::uint64_t pc;
    std::uint64_t vaddr;
    std::uint32_t size;
    std::uint8_t flags; ///< bit 0: store
    std::uint8_t nonmem;
    std::uint16_t reserved; ///< must be 0
};
#pragma pack(pop)
static_assert(sizeof(MemtraceRecord) == 24, "memtrace record layout");

constexpr std::uint8_t MEMTRACE_FLAG_WRITE = 0x01;
constexpr std::uint8_t MEMTRACE_FLAG_MASK = MEMTRACE_FLAG_WRITE;

class MemtraceDecoder final : public TraceDecoder
{
  public:
    bool begin(ByteSource&) override
    {
        pos_ = 0;
        return true;
    }

    bool
    next(ByteSource& src, sim::TraceRecord& out) override
    {
        MemtraceRecord rec;
        std::size_t got = src.read(&rec, sizeof(rec));
        if (got == 0)
            return false; // clean EOF
        if (got < sizeof(rec)) {
            if (!read_exact(src,
                            reinterpret_cast<std::uint8_t*>(&rec) + got,
                            sizeof(rec) - got)) {
                util::warn(util::format_msg(
                    "trace frontend: memtrace truncated at record ",
                    pos_, " in ", src.path()));
                return false;
            }
        }
        if ((rec.flags & ~MEMTRACE_FLAG_MASK) != 0 ||
            rec.reserved != 0) {
            util::warn(util::format_msg(
                "trace frontend: memtrace record ", pos_,
                " carries reserved bits in ", src.path(),
                " (newer format revision?)"));
            return false;
        }
        out.pc = rec.pc;
        out.addr = rec.vaddr;
        out.is_write = (rec.flags & MEMTRACE_FLAG_WRITE) != 0;
        out.nonmem_before = rec.nonmem;
        out.dep_distance = 0;
        ++pos_;
        return true;
    }

  private:
    std::uint64_t pos_ = 0;
};

} // namespace

const char*
format_name(TraceFormat f)
{
    switch (f) {
    case TraceFormat::Auto:
        return "auto";
    case TraceFormat::Tria:
        return "tria";
    case TraceFormat::ChampSim:
        return "champsim";
    case TraceFormat::Memtrace:
        return "memtrace";
    }
    return "?";
}

bool
parse_format(const std::string& s, TraceFormat& out)
{
    if (s == "auto")
        out = TraceFormat::Auto;
    else if (s == "tria")
        out = TraceFormat::Tria;
    else if (s == "champsim")
        out = TraceFormat::ChampSim;
    else if (s == "memtrace")
        out = TraceFormat::Memtrace;
    else
        return false;
    return true;
}

bool
detect_format(const std::string& path, TraceFormat& out)
{
    std::string base = path;
    for (const char* comp : {".gz", ".xz"}) {
        if (has_suffix(base, comp)) {
            base = base.substr(0, base.size() - std::strlen(comp));
            break;
        }
    }
    if (has_suffix(base, ".tria") || has_suffix(base, ".tri")) {
        out = TraceFormat::Tria;
    } else if (has_suffix(base, ".champsim") ||
               has_suffix(base, ".champsimtrace")) {
        out = TraceFormat::ChampSim;
    } else if (has_suffix(base, ".memtrace") || has_suffix(base, ".mtr")) {
        out = TraceFormat::Memtrace;
    } else {
        return false;
    }
    return true;
}

std::unique_ptr<TraceDecoder>
make_decoder(TraceFormat format)
{
    switch (format) {
    case TraceFormat::Tria:
        return std::make_unique<TriaDecoder>();
    case TraceFormat::ChampSim:
        return std::make_unique<ChampSimDecoder>();
    case TraceFormat::Memtrace:
        return std::make_unique<MemtraceDecoder>();
    case TraceFormat::Auto:
        break;
    }
    util::fatal("make_decoder: unresolved trace format");
}

} // namespace triage::frontend

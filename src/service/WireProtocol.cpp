//===- service/WireProtocol.cpp -------------------------------------------===//

#include "service/WireProtocol.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace ccra;

namespace {

void putU16(std::string &Out, std::uint16_t V) {
  Out.push_back(static_cast<char>(V & 0xff));
  Out.push_back(static_cast<char>((V >> 8) & 0xff));
}

void putU32(std::string &Out, std::uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<char>((V >> Shift) & 0xff));
}

std::uint16_t getU16(const unsigned char *P) {
  return static_cast<std::uint16_t>(P[0] | (P[1] << 8));
}

std::uint32_t getU32(const unsigned char *P) {
  return static_cast<std::uint32_t>(P[0]) |
         (static_cast<std::uint32_t>(P[1]) << 8) |
         (static_cast<std::uint32_t>(P[2]) << 16) |
         (static_cast<std::uint32_t>(P[3]) << 24);
}

bool validFrameType(std::uint16_t T) {
  return T >= static_cast<std::uint16_t>(FrameType::Hello) &&
         T <= static_cast<std::uint16_t>(FrameType::AllocRequestV2);
}

/// Walks a line-oriented payload. Lines end in '\n' (a missing final
/// newline still yields the last line).
class LineScanner {
public:
  explicit LineScanner(const std::string &Text) : Text(Text) {}

  bool next(std::string &Line) {
    if (Pos >= Text.size())
      return false;
    std::size_t End = Text.find('\n', Pos);
    if (End == std::string::npos) {
      Line = Text.substr(Pos);
      Pos = Text.size();
    } else {
      Line = Text.substr(Pos, End - Pos);
      Pos = End + 1;
    }
    return true;
  }

  /// Everything after the last line returned by next().
  std::string rest() const { return Text.substr(Pos); }

private:
  const std::string &Text;
  std::size_t Pos = 0;
};

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

/// "key: value" split; returns false when \p Line lacks the separator.
bool splitHeader(const std::string &Line, std::string &Key,
                 std::string &Value) {
  std::size_t Colon = Line.find(": ");
  if (Colon == std::string::npos) {
    // Bare "key:" section markers have no value.
    if (!Line.empty() && Line.back() == ':') {
      Key = Line.substr(0, Line.size() - 1);
      Value.clear();
      return true;
    }
    return false;
  }
  Key = Line.substr(0, Colon);
  Value = Line.substr(Colon + 2);
  return true;
}

bool parseUnsigned(const std::string &S, unsigned long long &Out) {
  if (S.empty())
    return false;
  auto R = std::from_chars(S.data(), S.data() + S.size(), Out);
  return R.ec == std::errc() && R.ptr == S.data() + S.size();
}

bool parseExactDouble(const std::string &S, double &Out) {
  if (S.empty())
    return false;
  auto R = std::from_chars(S.data(), S.data() + S.size(), Out);
  return R.ec == std::errc() && R.ptr == S.data() + S.size();
}

const char TelemetryEndMarker[] = "end-telemetry";

} // namespace

std::uint32_t ccra::wireChecksum(const std::string &Payload) {
  std::uint32_t H = 2166136261u;
  for (unsigned char C : Payload) {
    H ^= C;
    H *= 16777619u;
  }
  return H;
}

void ccra::encodeFrame(const Frame &F, std::string &Out) {
  Out.reserve(Out.size() + WireHeaderSize + F.Payload.size());
  putU32(Out, WireMagic);
  putU16(Out, WireVersion);
  putU16(Out, static_cast<std::uint16_t>(F.Type));
  putU32(Out, static_cast<std::uint32_t>(F.Payload.size()));
  putU32(Out, wireChecksum(F.Payload));
  Out += F.Payload;
}

FrameReadStatus ccra::decodeFrameHeader(const unsigned char *Bytes,
                                        std::size_t MaxPayload,
                                        FrameHeader &Out, std::string *Err) {
  if (getU32(Bytes) != WireMagic) {
    if (Err)
      *Err = "bad frame magic";
    return FrameReadStatus::Malformed;
  }
  if (getU16(Bytes + 4) != WireVersion) {
    if (Err)
      *Err = "unsupported protocol version";
    return FrameReadStatus::Malformed;
  }
  std::uint16_t Type = getU16(Bytes + 6);
  if (!validFrameType(Type)) {
    if (Err)
      *Err = "unknown frame type";
    return FrameReadStatus::Malformed;
  }
  Out.Type = static_cast<FrameType>(Type);
  Out.Length = getU32(Bytes + 8);
  Out.Checksum = getU32(Bytes + 12);
  if (Out.Length > MaxPayload) {
    if (Err)
      *Err = "frame payload over limit";
    return FrameReadStatus::TooLarge;
  }
  return FrameReadStatus::Ok;
}

FrameReadStatus ccra::readFrame(Socket &S, Frame &Out, std::size_t MaxPayload,
                                int IdleTimeoutMs, int FrameTimeoutMs,
                                std::string *Err) {
  unsigned char Header[WireHeaderSize];
  // First byte separately: a clean close between frames is Eof, a close
  // inside the header is a torn frame, and an idle wait consumes nothing.
  IoStatus St = S.recvAll(Header, 1, IdleTimeoutMs, Err);
  if (St == IoStatus::Closed)
    return FrameReadStatus::Eof;
  if (St == IoStatus::Timeout)
    return FrameReadStatus::Idle;
  if (St != IoStatus::Ok)
    return FrameReadStatus::IoError;

  St = S.recvAll(Header + 1, WireHeaderSize - 1, FrameTimeoutMs, Err);
  if (St == IoStatus::Closed)
    return FrameReadStatus::Malformed; // torn header
  if (St == IoStatus::Timeout)
    return FrameReadStatus::Timeout;
  if (St != IoStatus::Ok)
    return FrameReadStatus::IoError;

  FrameHeader H;
  FrameReadStatus HS = decodeFrameHeader(Header, MaxPayload, H, Err);
  if (HS != FrameReadStatus::Ok)
    return HS;

  Out.Type = H.Type;
  Out.Payload.resize(H.Length);
  if (H.Length > 0) {
    St = S.recvAll(Out.Payload.data(), H.Length, FrameTimeoutMs, Err);
    if (St == IoStatus::Closed)
      return FrameReadStatus::Malformed; // torn payload
    if (St == IoStatus::Timeout)
      return FrameReadStatus::Timeout;
    if (St != IoStatus::Ok)
      return FrameReadStatus::IoError;
  }
  if (wireChecksum(Out.Payload) != H.Checksum) {
    if (Err)
      *Err = "payload checksum mismatch";
    return FrameReadStatus::Malformed;
  }
  return FrameReadStatus::Ok;
}

IoStatus ccra::writeFrame(Socket &S, const Frame &F, int TimeoutMs,
                          std::string *Err) {
  std::string Wire;
  encodeFrame(F, Wire);
  return S.sendAll(Wire.data(), Wire.size(), TimeoutMs, Err);
}

std::string ccra::formatExactDouble(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

// --- Hello ---------------------------------------------------------------

std::string ccra::encodeHello(const HelloInfo &H) {
  std::string Out;
  Out += "server: " + H.ServerInfo + "\n";
  Out += "protocol: " + std::to_string(H.Protocol) + "\n";
  Out += "max-payload: " + std::to_string(H.MaxPayloadBytes) + "\n";
  Out += "queue: " + std::to_string(H.QueueCapacity) + "\n";
  Out += "batch: " + std::to_string(H.MaxBatch) + "\n";
  if (H.ProtocolMinor > 0) {
    // v1.1 capability fields; a v1.0 hello carries none of them and a
    // v1.0 parser skips them as unknown keys.
    Out += "minor: " + std::to_string(H.ProtocolMinor) + "\n";
    Out += "cache: " + std::string(H.CacheEnabled ? "1" : "0") + "\n";
    Out += "shards: " + std::to_string(H.Shards) + "\n";
  }
  if (H.ProtocolMinor > 1) {
    // v1.2: codec negotiation. Same discipline — old parsers skip it, and
    // its absence parses as "text only" (MaxCodec = 1).
    Out += "codec-max: " + std::to_string(H.MaxCodec) + "\n";
  }
  return Out;
}

bool ccra::parseHello(const std::string &Payload, HelloInfo &Out,
                      std::string *Err) {
  Out = HelloInfo();
  Out.ServerInfo.clear();
  LineScanner Lines(Payload);
  std::string Line, Key, Value;
  while (Lines.next(Line)) {
    if (Line.empty())
      continue;
    if (!splitHeader(Line, Key, Value))
      return fail(Err, "malformed hello line '" + Line + "'");
    unsigned long long N = 0;
    if (Key == "server") {
      Out.ServerInfo = Value;
    } else if (Key == "protocol") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad protocol number");
      Out.Protocol = static_cast<std::uint16_t>(N);
    } else if (Key == "max-payload") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad max-payload");
      Out.MaxPayloadBytes = static_cast<std::size_t>(N);
    } else if (Key == "queue") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad queue");
      Out.QueueCapacity = static_cast<unsigned>(N);
    } else if (Key == "batch") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad batch");
      Out.MaxBatch = static_cast<unsigned>(N);
    } else if (Key == "minor") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad minor");
      Out.ProtocolMinor = static_cast<std::uint16_t>(N);
    } else if (Key == "cache") {
      Out.CacheEnabled = Value == "1";
    } else if (Key == "shards") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad shards");
      Out.Shards = static_cast<unsigned>(N);
    } else if (Key == "codec-max") {
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad codec-max");
      Out.MaxCodec = static_cast<std::uint16_t>(N);
    }
    // Unknown keys are ignored: the hello may grow fields.
  }
  return true;
}

// --- AllocRequest --------------------------------------------------------

std::string ccra::encodeAllocRequest(const AllocRequest &R) {
  std::string Out;
  Out += "config: " + std::to_string(R.Config.IntCallerSave) + "," +
         std::to_string(R.Config.FloatCallerSave) + "," +
         std::to_string(R.Config.IntCalleeSave) + "," +
         std::to_string(R.Config.FloatCalleeSave) + "\n";
  // Not frequencyModeName(): that renders Profile as "dynamic" for the
  // tables; the wire grammar names the enumerator.
  Out += std::string("mode: ") +
         (R.Mode == FrequencyMode::Static ? "static" : "profile") + "\n";
  if (R.DeadlineMs > 0)
    Out += "deadline-ms: " + std::to_string(R.DeadlineMs) + "\n";
  // The wire carries behavior, not execution strategy (see
  // AllocRequest::Options).
  Out += "options: " + R.Options.canonicalKey() + "\n";
  Out += "module:\n";
  Out += R.ModuleText;
  return Out;
}

bool ccra::parseAllocRequest(const std::string &Payload, AllocRequest &Out,
                             std::string *Err) {
  Out = AllocRequest();
  LineScanner Lines(Payload);
  std::string Line, Key, Value;
  bool SawModule = false;
  while (Lines.next(Line)) {
    if (Line.empty())
      continue;
    if (!splitHeader(Line, Key, Value))
      return fail(Err, "malformed request line '" + Line + "'");
    if (Key == "module") {
      Out.ModuleText = Lines.rest();
      SawModule = true;
      break;
    }
    if (Key == "config") {
      unsigned Ri, Rf, Ei, Ef;
      if (std::sscanf(Value.c_str(), "%u,%u,%u,%u", &Ri, &Rf, &Ei, &Ef) != 4)
        return fail(Err, "bad config '" + Value + "'");
      Out.Config = RegisterConfig(Ri, Rf, Ei, Ef);
    } else if (Key == "mode") {
      if (Value == "profile")
        Out.Mode = FrequencyMode::Profile;
      else if (Value == "static")
        Out.Mode = FrequencyMode::Static;
      else
        return fail(Err, "bad mode '" + Value + "'");
    } else if (Key == "deadline-ms") {
      unsigned long long N = 0;
      if (!parseUnsigned(Value, N))
        return fail(Err, "bad deadline-ms '" + Value + "'");
      Out.DeadlineMs = static_cast<unsigned>(N);
    } else if (Key == "options") {
      std::string OptErr;
      if (!parseAllocatorOptions(Value, Out.Options, &OptErr))
        return fail(Err, "bad options: " + OptErr);
    } else {
      return fail(Err, "unknown request key '" + Key + "'");
    }
  }
  if (!SawModule)
    return fail(Err, "request has no module section");
  if (Out.ModuleText.empty())
    return fail(Err, "request module is empty");
  return true;
}

// --- AllocResponse -------------------------------------------------------

std::string ccra::encodeAllocResponse(const AllocResponse &R) {
  std::string Out;
  Out.reserve(R.AllocatedIr.size() + 96 * R.Functions.size() + 4096);
  Out += "costs: " + formatExactDouble(R.Totals.Spill) + " " +
         formatExactDouble(R.Totals.CallerSave) + " " +
         formatExactDouble(R.Totals.CalleeSave) + " " +
         formatExactDouble(R.Totals.Shuffle) + "\n";
  Out += "functions: " + std::to_string(R.Functions.size()) + "\n";
  for (const FunctionSummary &F : R.Functions) {
    Out += "function: " + F.Name + " " + formatExactDouble(F.Costs.Spill) +
           " " + formatExactDouble(F.Costs.CallerSave) + " " +
           formatExactDouble(F.Costs.CalleeSave) + " " +
           formatExactDouble(F.Costs.Shuffle) + " " +
           std::to_string(F.Rounds) + " " + std::to_string(F.SpilledRanges) +
           " " + std::to_string(F.VoluntarySpills) + " " +
           std::to_string(F.CoalescedMoves) + " " +
           std::to_string(F.CalleeRegsPaid) + "\n";
  }
  Out += "telemetry:\n";
  Out += R.Telemetry.toJson();
  if (Out.empty() || Out.back() != '\n')
    Out += '\n';
  Out += TelemetryEndMarker;
  Out += '\n';
  Out += "ir:\n";
  Out += R.AllocatedIr;
  return Out;
}

bool ccra::parseAllocResponse(const std::string &Payload, AllocResponse &Out,
                              std::string *Err) {
  Out = AllocResponse();
  LineScanner Lines(Payload);
  std::string Line, Key, Value;
  unsigned long long DeclaredFunctions = 0;
  bool SawIr = false;
  while (Lines.next(Line)) {
    if (Line.empty())
      continue;
    if (!splitHeader(Line, Key, Value))
      return fail(Err, "malformed response line '" + Line + "'");
    if (Key == "costs") {
      std::istringstream IS(Value);
      std::string A, B, C, D;
      if (!(IS >> A >> B >> C >> D) ||
          !parseExactDouble(A, Out.Totals.Spill) ||
          !parseExactDouble(B, Out.Totals.CallerSave) ||
          !parseExactDouble(C, Out.Totals.CalleeSave) ||
          !parseExactDouble(D, Out.Totals.Shuffle))
        return fail(Err, "bad costs line");
    } else if (Key == "functions") {
      if (!parseUnsigned(Value, DeclaredFunctions))
        return fail(Err, "bad functions count");
    } else if (Key == "function") {
      std::istringstream IS(Value);
      FunctionSummary F;
      std::string S0, S1, S2, S3;
      if (!(IS >> F.Name >> S0 >> S1 >> S2 >> S3 >> F.Rounds >>
            F.SpilledRanges >> F.VoluntarySpills >> F.CoalescedMoves >>
            F.CalleeRegsPaid) ||
          !parseExactDouble(S0, F.Costs.Spill) ||
          !parseExactDouble(S1, F.Costs.CallerSave) ||
          !parseExactDouble(S2, F.Costs.CalleeSave) ||
          !parseExactDouble(S3, F.Costs.Shuffle))
        return fail(Err, "bad function line '" + Value + "'");
      Out.Functions.push_back(std::move(F));
    } else if (Key == "telemetry") {
      std::string Json;
      bool Terminated = false;
      while (Lines.next(Line)) {
        if (Line == TelemetryEndMarker) {
          Terminated = true;
          break;
        }
        Json += Line;
        Json += '\n';
      }
      if (!Terminated)
        return fail(Err, "unterminated telemetry section");
      if (!TelemetrySnapshot::fromJson(Json, Out.Telemetry))
        return fail(Err, "bad telemetry json");
    } else if (Key == "ir") {
      Out.AllocatedIr = Lines.rest();
      SawIr = true;
      break;
    } else {
      return fail(Err, "unknown response key '" + Key + "'");
    }
  }
  if (!SawIr)
    return fail(Err, "response has no ir section");
  if (Out.Functions.size() != DeclaredFunctions)
    return fail(Err, "function count mismatch");
  return true;
}

// --- Error ---------------------------------------------------------------

std::string ccra::encodeError(const ErrorResponse &E) {
  return "code: " + E.Code + "\n" + E.Message;
}

bool ccra::parseError(const std::string &Payload, ErrorResponse &Out) {
  Out = ErrorResponse();
  LineScanner Lines(Payload);
  std::string Line, Key, Value;
  if (!Lines.next(Line) || !splitHeader(Line, Key, Value) || Key != "code")
    return false;
  Out.Code = Value;
  Out.Message = Lines.rest();
  return true;
}

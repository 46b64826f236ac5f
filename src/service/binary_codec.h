// The binary TLV (tag-length-value) codec: the one wire format of the wfd
// protocol (message structs in src/service/protocol.h). Every request,
// response and push frame is one TLV message; job-file and payload frames
// are raw bytes.
//
// Message layout (all integers big-endian):
//
//   [kind u8] then fields, each [tag u8][len u32][value]
//
// kind 0x01 = request, 0x02 = response. Strings are raw bytes; u64 fields
// are 8 bytes; doubles are IEEE-754 bits as u64; bools are 1 byte (0/1).
// A session status rides as a nested TLV block (tag 6 of a response,
// repeated per session). Optional fields are absent at their defaults.
// Decoders skip unknown tags (forward compatibility), let a repeated scalar
// tag overwrite the earlier value, and reject anything truncated or
// type-malformed with a non-empty error. tests/protocol_test.cpp pins every
// field's round trip and a seeded mutation property: any decodable frame
// re-encodes to a fixed point. The full tag table is in docs/service.md.
#ifndef WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_
#define WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_

#include <string>

#include "src/service/protocol.h"

namespace wayfinder {

std::string EncodeRequestBinary(const ServiceRequest& request);
bool DecodeRequestBinary(const std::string& data, ServiceRequest* request,
                         std::string* error);

std::string EncodeResponseBinary(const ServiceResponse& response);
bool DecodeResponseBinary(const std::string& data, ServiceResponse* response,
                          std::string* error);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_BINARY_CODEC_H_

#include "baseline/memcache.h"

#include <algorithm>

namespace sedna::baseline {

NodeId KetamaRing::server_for(std::string_view key,
                              std::uint32_t replica) const {
  if (points_.empty()) return kInvalidNode;
  auto it = points_.lower_bound(ring_hash(key));
  std::vector<NodeId> seen;
  // Walk clockwise collecting distinct servers until we reach `replica`.
  for (std::size_t hops = 0; hops < points_.size() * 2; ++hops) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(seen.begin(), seen.end(), it->second) == seen.end()) {
      if (seen.size() == replica) return it->second;
      seen.push_back(it->second);
    }
    ++it;
  }
  return points_.begin()->second;  // fewer distinct servers than replica
}

void MemcacheClient::set(const std::string& key, const std::string& value,
                         SetCallback cb) {
  set_chain(key, value, 1, 0, std::move(cb));
}

void MemcacheClient::get(const std::string& key, GetCallback cb) {
  get_chain(key, 1, 0, std::move(cb));
}

void MemcacheClient::set_n(const std::string& key, const std::string& value,
                           std::uint32_t copies, SetCallback cb) {
  set_chain(key, value, copies, 0, std::move(cb));
}

void MemcacheClient::get_n(const std::string& key, std::uint32_t copies,
                           GetCallback cb) {
  get_chain(key, copies, 0, std::move(cb));
}

void MemcacheClient::set_chain(const std::string& key,
                               const std::string& value,
                               std::uint32_t copies, std::uint32_t idx,
                               SetCallback cb) {
  const NodeId server = ring_.server_for(key, idx);
  if (server == kInvalidNode) {
    cb(Status::Unavailable("no memcached servers"));
    return;
  }
  BinaryWriter w(key.size() + value.size() + 8);
  w.put_string(key);
  w.put_string(value);
  call(server, kMsgMcSet, std::move(w).take(),
       [this, key, value, copies, idx, cb = std::move(cb)](
           const Status& st, const std::string& body) mutable {
         metrics_.counter("mc.sets").add(1);
         if (!st.ok()) {
           cb(st);
           return;
         }
         BinaryReader r(body);
         const auto code = static_cast<StatusCode>(r.get_u8());
         if (code != StatusCode::kOk) {
           cb(Status(code));
           return;
         }
         if (idx + 1 >= copies) {
           cb(Status::Ok());
           return;
         }
         // Next copy only after this one acknowledged: sequential, the
         // defining property of the Fig. 7a Memcached configuration.
         set_chain(key, value, copies, idx + 1, std::move(cb));
       });
}

void MemcacheClient::get_chain(const std::string& key, std::uint32_t copies,
                               std::uint32_t idx, GetCallback cb) {
  const NodeId server = ring_.server_for(key, idx);
  if (server == kInvalidNode) {
    cb(Status::Unavailable("no memcached servers"));
    return;
  }
  BinaryWriter w(key.size() + 8);
  w.put_string(key);
  call(server, kMsgMcGet, std::move(w).take(),
       [this, key, copies, idx, cb = std::move(cb)](
           const Status& st, const std::string& body) mutable {
         metrics_.counter("mc.gets").add(1);
         Result<std::string> result = Status::Timeout();
         if (st.ok()) {
           BinaryReader r(body);
           const auto code = static_cast<StatusCode>(r.get_u8());
           std::string value = r.get_string();
           if (code == StatusCode::kOk) {
             result = std::move(value);
           } else {
             result = Status(code);
           }
         }
         if (idx + 1 >= copies) {
           cb(result);
           return;
         }
         get_chain(key, copies, idx + 1, std::move(cb));
       });
}

}  // namespace sedna::baseline

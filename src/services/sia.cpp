#include "services/sia.hpp"

#include "common/strings.hpp"
#include "votable/votable_io.hpp"

namespace nvo::services {

votable::Table sia_records_to_table(const std::vector<SiaRecord>& records) {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"title", DataType::kString, "", "meta.title", ""},
      Field{"ra", DataType::kDouble, "deg", "pos.eq.ra", "image center RA"},
      Field{"dec", DataType::kDouble, "deg", "pos.eq.dec", "image center Dec"},
      Field{"size", DataType::kDouble, "deg", "", "angular extent"},
      Field{"format", DataType::kString, "", "meta.code.mime", ""},
      Field{"acref", DataType::kString, "", "meta.ref.url", "access reference"},
      Field{"filesize", DataType::kLong, "byte", "", "estimated size"},
  });
  t.name = "SIA_RESULTS";
  for (const SiaRecord& r : records) {
    (void)t.append_row({Value::of_string(r.title), Value::of_double(r.center.ra_deg),
                        Value::of_double(r.center.dec_deg), Value::of_double(r.size_deg),
                        Value::of_string(r.format), Value::of_string(r.access_url),
                        Value::of_long(static_cast<long long>(r.estimated_bytes))});
  }
  return t;
}

Expected<std::vector<SiaRecord>> sia_records_from_table(const votable::Table& table) {
  // Columns are looked up once, then read by index on every row.
  enum Column { kTitle, kRa, kDec, kSize, kFormat, kAcref, kRequired };
  const char* const names[kRequired] = {"title", "ra", "dec", "size", "format", "acref"};
  std::size_t col[kRequired];
  for (std::size_t c = 0; c < kRequired; ++c) {
    const auto idx = table.column_index(names[c]);
    if (!idx) {
      return Error(ErrorCode::kParseError,
                   std::string("SIA table lacks column ") + names[c]);
    }
    col[c] = *idx;
  }
  const auto filesize_col = table.column_index("filesize");
  std::vector<SiaRecord> out;
  out.reserve(table.num_rows());
  for (const votable::Row& row : table.rows()) {
    SiaRecord r;
    if (const std::string* title = row[col[kTitle]].string_ref()) r.title = *title;
    r.center.ra_deg = row[col[kRa]].as_number().value_or(0.0);
    r.center.dec_deg = row[col[kDec]].as_number().value_or(0.0);
    r.size_deg = row[col[kSize]].as_number().value_or(0.0);
    if (const std::string* format = row[col[kFormat]].string_ref()) r.format = *format;
    if (const std::string* url = row[col[kAcref]].string_ref()) r.access_url = *url;
    r.estimated_bytes = static_cast<std::size_t>(
        filesize_col ? row[*filesize_col].as_long().value_or(0) : 0);
    out.push_back(std::move(r));
  }
  return out;
}

Handler make_sia_query_handler(SiaFinder finder) {
  return [finder = std::move(finder)](const Url& url) -> Expected<HttpResponse> {
    const auto pos = url.param("POS");
    const auto size = url.param_double("SIZE");
    if (!pos || !size || *size <= 0.0) {
      HttpResponse bad = HttpResponse::text("missing or invalid POS/SIZE");
      bad.status = 400;
      return bad;
    }
    const auto parts = split(*pos, ',');
    if (parts.size() != 2) {
      HttpResponse bad = HttpResponse::text("POS must be 'ra,dec'");
      bad.status = 400;
      return bad;
    }
    const auto ra = parse_double(parts[0]);
    const auto dec = parse_double(parts[1]);
    if (!ra || !dec) {
      HttpResponse bad = HttpResponse::text("unparseable POS");
      bad.status = 400;
      return bad;
    }
    const std::vector<SiaRecord> records = finder({*ra, *dec}, *size);
    return HttpResponse::text(votable::to_votable_xml(sia_records_to_table(records)),
                              "text/xml;content=x-votable");
  };
}

Handler make_image_handler(ImageProducer producer) {
  return [producer = std::move(producer)](const Url& url) -> Expected<HttpResponse> {
    auto fits = producer(url);
    if (!fits.ok()) return fits.error();
    return HttpResponse::binary(image::write_fits(fits.value()), "image/fits");
  };
}

Handler make_stored_image_handler(StoredImageProducer producer) {
  return [producer = std::move(producer)](const Url& url) -> Expected<HttpResponse> {
    auto frame = producer(url);
    if (!frame.ok()) return frame.error();
    HttpResponse response = HttpResponse::binary(frame.value()->fits, "image/fits");
    response.origin_digest = frame.value()->digest;
    return response;
  };
}

Expected<std::vector<SiaRecord>> sia_query(HttpChannel& channel,
                                           const std::string& base_url,
                                           const sky::Equatorial& pos,
                                           double size_deg) {
  const std::string url = format("%s?POS=%.6f,%.6f&SIZE=%.6f", base_url.c_str(),
                                 pos.ra_deg, pos.dec_deg, size_deg);
  auto response = channel.get(url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("SIA query returned %d: %s", response->status,
                        response->body_text().c_str()));
  }
  auto table = votable::from_votable_xml(response->body_text());
  if (!table.ok()) return table.error();
  return sia_records_from_table(table.value());
}

Expected<image::FitsFile> fetch_image(HttpChannel& channel, const std::string& url) {
  auto bytes = fetch_image_bytes(channel, url);
  if (!bytes.ok()) return bytes.error();
  return image::read_fits(bytes.value());
}

Expected<std::vector<std::uint8_t>> fetch_image_bytes(HttpChannel& channel,
                                                      const std::string& url) {
  auto response = channel.get(url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("image fetch returned %d", response->status));
  }
  return std::move(response->body);
}

}  // namespace nvo::services

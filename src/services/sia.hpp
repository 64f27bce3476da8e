// The Simple Image Access (SIA) protocol (§3.1): a positional query
// (POS=ra,dec & SIZE=deg) answered with a VOTable of matching image
// descriptions, each carrying an access URL; the image bytes are fetched by
// a second GET on that URL. "This latter interface is general enough to
// provide access to both simple static images from an image archive ... and
// custom cutout images from an image cutout service" — we implement both
// personalities, plus the batched-query extension the paper wishes existed
// ("this could be sped up tremendously if one could query for all images at
// once").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/expected.hpp"
#include "image/fits.hpp"
#include "services/http.hpp"
#include "sim/render_cache.hpp"
#include "sky/coords.hpp"
#include "votable/table.hpp"

namespace nvo::services {

/// One row of an SIA metadata response.
struct SiaRecord {
  std::string title;
  sky::Equatorial center;
  double size_deg = 0.0;        ///< angular extent of the image
  std::string format = "image/fits";
  std::string access_url;       ///< GET here for the bytes
  std::size_t estimated_bytes = 0;
};

/// Converts SIA records to/from the protocol's VOTable representation.
votable::Table sia_records_to_table(const std::vector<SiaRecord>& records);
Expected<std::vector<SiaRecord>> sia_records_from_table(const votable::Table& table);

/// Server side, metadata endpoint: wraps a positional image finder. The
/// finder receives the query cone and returns matching records.
using SiaFinder =
    std::function<std::vector<SiaRecord>(const sky::Equatorial& pos, double size_deg)>;
Handler make_sia_query_handler(SiaFinder finder);

/// Server side, image retrieval endpoint: wraps an image producer keyed on
/// the full request URL (producers interpret their own parameters, e.g. the
/// cutout service's POS/SIZE).
using ImageProducer = std::function<Expected<image::FitsFile>(const Url&)>;
Handler make_image_handler(ImageProducer producer);

/// Server side, image retrieval from an archive's frame store: the producer
/// returns the stored frame, whose bytes are served as they are, with the
/// digest recorded at store time as the origin signature (no encode, no
/// hash per serve).
using StoredImageProducer =
    std::function<Expected<std::shared_ptr<const sim::EncodedFrame>>(const Url&)>;
Handler make_stored_image_handler(StoredImageProducer producer);

/// Client side: metadata query. Accepts any HttpChannel — the raw fabric or
/// a ResilientClient for retry/breaker/failover tolerance.
Expected<std::vector<SiaRecord>> sia_query(HttpChannel& channel,
                                           const std::string& base_url,
                                           const sky::Equatorial& pos,
                                           double size_deg);

/// Client side: image fetch (parses the FITS payload).
Expected<image::FitsFile> fetch_image(HttpChannel& channel, const std::string& url);

/// Client side: raw image fetch, when only the bytes are needed (the compute
/// service caches serialized FITS without decoding).
Expected<std::vector<std::uint8_t>> fetch_image_bytes(HttpChannel& channel,
                                                      const std::string& url);

}  // namespace nvo::services
